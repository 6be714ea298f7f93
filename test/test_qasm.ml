(* Tests for the OpenQASM printer/reader pair. *)

let rng = Random.State.make [| 808 |]

let random_circuit n gates =
  let instrs = ref [] in
  for _ = 1 to gates do
    let q = Random.State.int rng n in
    let q2 = (q + 1 + Random.State.int rng (n - 1)) mod n in
    let q3 = (q2 + 1 + Random.State.int rng (n - 2)) mod n in
    let q3 = if q3 = q then (q3 + 1) mod n else q3 in
    let angle = Random.State.float rng 6.0 -. 3.0 in
    let i =
      match Random.State.int rng 10 with
      | 0 -> Circuit.instr Qgate.H [| q |]
      | 1 -> Circuit.instr (Qgate.Rz angle) [| q |]
      | 2 -> Circuit.instr (Qgate.Rx angle) [| q |]
      | 3 -> Circuit.instr (Qgate.U3 (angle, -.angle, angle /. 3.0)) [| q |]
      | 4 -> Circuit.instr Qgate.T [| q |]
      | 5 -> Circuit.instr Qgate.Sdg [| q |]
      | 6 -> Circuit.instr Qgate.CX [| q; q2 |]
      | 7 -> Circuit.instr Qgate.CZ [| q; q2 |]
      | 8 -> Circuit.instr Qgate.Swap [| q; q2 |]
      | _ -> if q3 <> q && q3 <> q2 then Circuit.instr Qgate.Ccx [| q; q2; q3 |]
             else Circuit.instr Qgate.Y [| q |]
    in
    instrs := i :: !instrs
  done;
  Circuit.make n (List.rev !instrs)

let suite =
  [
    Alcotest.test_case "print/parse round trip preserves structure" `Quick (fun () ->
        for _ = 1 to 10 do
          let c = random_circuit 4 20 in
          let c' = Qasm_reader.of_string (Qasm.to_string c) in
          Alcotest.(check int) "qubits" c.Circuit.n_qubits c'.Circuit.n_qubits;
          Alcotest.(check int) "gates" (Circuit.length c) (Circuit.length c');
          Alcotest.(check int) "T count" (Circuit.t_count c) (Circuit.t_count c')
        done);
    Alcotest.test_case "round trip preserves semantics" `Quick (fun () ->
        for _ = 1 to 10 do
          let c = random_circuit 3 15 in
          let c' = Qasm_reader.of_string (Qasm.to_string c) in
          let d = Cmatrix.distance (Unitary.of_circuit c) (Unitary.of_circuit c') in
          Alcotest.(check bool) "equivalent" true (d < 1e-6)
        done);
    Alcotest.test_case "expressions with pi parse" `Quick (fun () ->
        let c =
          Qasm_reader.of_string
            "OPENQASM 2.0;\nqreg q[1];\nrz(pi/2) q[0];\nrz(-pi/4) q[0];\nrz(3*pi/8) q[0];\nrz(2*(pi+1)) q[0];\n"
        in
        match List.map (fun (i : Circuit.instr) -> i.Circuit.gate) c.Circuit.instrs with
        | [ Qgate.Rz a; Qgate.Rz b; Qgate.Rz c1; Qgate.Rz d ] ->
            Alcotest.(check (float 1e-12)) "pi/2" (Float.pi /. 2.0) a;
            Alcotest.(check (float 1e-12)) "-pi/4" (-.Float.pi /. 4.0) b;
            Alcotest.(check (float 1e-12)) "3pi/8" (3.0 *. Float.pi /. 8.0) c1;
            Alcotest.(check (float 1e-12)) "2(pi+1)" (2.0 *. (Float.pi +. 1.0)) d
        | _ -> Alcotest.fail "wrong gates");
    Alcotest.test_case "comments, barriers and measures are skipped" `Quick (fun () ->
        let c =
          Qasm_reader.of_string
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n// comment\nh q[0]; \nbarrier q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n"
        in
        Alcotest.(check int) "two gates" 2 (Circuit.length c));
    Alcotest.test_case "u1 and u aliases" `Quick (fun () ->
        let c = Qasm_reader.of_string "qreg q[1];\nu1(0.5) q[0];\nu(0.1,0.2,0.3) q[0];\n" in
        match List.map (fun (i : Circuit.instr) -> i.Circuit.gate) c.Circuit.instrs with
        | [ Qgate.Rz _; Qgate.U3 _ ] -> ()
        | _ -> Alcotest.fail "aliases not handled");
    Alcotest.test_case "errors carry file and line" `Quick (fun () ->
        (match Qasm_reader.of_string ~file:"bad.qasm" "qreg q[1];\nfrobnicate q[0];\n" with
        | exception Qasm_reader.Parse_error ("bad.qasm", 2, c, _) ->
            Alcotest.(check int) "column" 1 c
        | exception Qasm_reader.Parse_error (f, l, _, m) ->
            Alcotest.fail (Printf.sprintf "wrong location %s:%d: %s" f l m)
        | _ -> Alcotest.fail "should have failed");
        (* Without an explicit file the placeholder is used. *)
        match Qasm_reader.of_string "qreg q[1];\nfrobnicate q[0];\n" with
        | exception Qasm_reader.Parse_error ("<string>", 2, _, _) -> ()
        | exception Qasm_reader.Parse_error (f, _, _, _) -> Alcotest.fail ("wrong file " ^ f)
        | _ -> Alcotest.fail "should have failed");
    Alcotest.test_case "of_file errors carry the path" `Quick (fun () ->
        let path = Filename.temp_file "tgates_bad" ".qasm" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let oc = open_out path in
        output_string oc "qreg q[2];\nh q[0];\nnope q[1];\n";
        close_out oc;
        match Qasm_reader.of_file path with
        | exception Qasm_reader.Parse_error (f, 3, _, _) ->
            Alcotest.(check string) "path in error" path f
        | exception Qasm_reader.Parse_error (f, l, _, m) ->
            Alcotest.fail (Printf.sprintf "wrong location %s:%d: %s" f l m)
        | _ -> Alcotest.fail "should have failed");
    Alcotest.test_case "malformed QASM is rejected with locations" `Quick (fun () ->
        let expect_error ~what ~line text =
          match Qasm_reader.of_string text with
          | exception Qasm_reader.Parse_error (_, l, _, _) ->
              Alcotest.(check int) (what ^ " line") line l
          | _ -> Alcotest.fail (what ^ ": should have failed")
        in
        (* Truncated file: the last statement stops mid-expression. *)
        expect_error ~what:"truncated expression" ~line:2 "qreg q[2];\nrz(0.5 q[0];\n";
        expect_error ~what:"unbalanced paren" ~line:2 "qreg q[2];\nrz(0.5 q[0]\n";
        (* Wrong arity, both ways. *)
        expect_error ~what:"h with two qubits" ~line:2 "qreg q[2];\nh q[0],q[1];\n";
        expect_error ~what:"cx with one qubit" ~line:3 "qreg q[2];\nh q[0];\ncx q[0];\n";
        expect_error ~what:"rz without angle" ~line:2 "qreg q[2];\nrz q[0];\n";
        (* Out-of-range and pre-declaration qubits. *)
        expect_error ~what:"qubit out of range" ~line:2 "qreg q[2];\nh q[5];\n";
        expect_error ~what:"gate before qreg" ~line:1 "h q[0];\nqreg q[2];\n";
        expect_error ~what:"duplicate qubit" ~line:2 "qreg q[2];\ncx q[1],q[1];\n";
        expect_error ~what:"zero-size qreg" ~line:1 "qreg q[0];\nh q[0];\n");
  ]

(* The writer against a copy of the Printf renderer it replaced: every
   gate kind, awkward floats, and operand arrays of any length and index
   (records built directly, so nothing is validated on the way in). *)
let reference_gate = function
  | Qgate.H -> "h"
  | Qgate.X -> "x"
  | Qgate.Y -> "y"
  | Qgate.Z -> "z"
  | Qgate.S -> "s"
  | Qgate.Sdg -> "sdg"
  | Qgate.T -> "t"
  | Qgate.Tdg -> "tdg"
  | Qgate.Rx a -> Printf.sprintf "rx(%.17g)" a
  | Qgate.Ry a -> Printf.sprintf "ry(%.17g)" a
  | Qgate.Rz a -> Printf.sprintf "rz(%.17g)" a
  | Qgate.U3 (a, b, c) -> Printf.sprintf "u3(%.17g,%.17g,%.17g)" a b c
  | Qgate.CX -> "cx"
  | Qgate.CZ -> "cz"
  | Qgate.Swap -> "swap"
  | Qgate.Ccx -> "ccx"

let reference_instr (i : Circuit.instr) =
  let qs = String.concat "," (Array.to_list (Array.map (Printf.sprintf "q[%d]") i.Circuit.qubits)) in
  Printf.sprintf "%s %s;" (reference_gate i.Circuit.gate) qs

let reference_to_string n instrs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" n);
  List.iter
    (fun i ->
      Buffer.add_string buf (reference_instr i);
      Buffer.add_char buf '\n')
    instrs;
  Buffer.contents buf

let float_gen =
  QCheck2.Gen.(
    oneof
      [
        float;
        oneofl
          [ 0.0; -0.0; 1e300; -1e300; 5e-324; -5e-324; 2.2250738585072009e-308 /. 3.0;
            Float.pi; 0.1; 1e-17; 123456789.125; infinity; neg_infinity; nan ];
        map (fun k -> float_of_int k *. Float.pi /. 16.0) (int_range (-40) 40);
      ])

let gate_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl Qgate.[ H; X; Y; Z; S; Sdg; T; Tdg; CX; CZ; Swap; Ccx ];
        map (fun a -> Qgate.Rx a) float_gen;
        map (fun a -> Qgate.Ry a) float_gen;
        map (fun a -> Qgate.Rz a) float_gen;
        map3 (fun a b c -> Qgate.U3 (a, b, c)) float_gen float_gen float_gen;
      ])

(* Indices inside and just past the writer's prebuilt operands, far
   beyond them, and negative. *)
let qubit_gen =
  QCheck2.Gen.(
    oneof [ int_range 0 20; int_range 1000 1050; int_range 0 5_000_000; int_range (-3) (-1) ])

let instr_gen =
  QCheck2.Gen.(
    map2
      (fun gate qubits -> { Circuit.gate; qubits = Array.of_list qubits })
      gate_gen
      (oneof [ map (fun q -> [ q ]) qubit_gen; list_size (int_range 0 3) qubit_gen ]))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let writer_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"writer matches the Printf renderer byte for byte"
         QCheck2.Gen.(pair (int_range 1 3000) (list_size (int_range 0 40) instr_gen))
         (fun (n, instrs) ->
           let want = reference_to_string n instrs in
           let c = { Circuit.n_qubits = n; instrs } in
           let path = Filename.temp_file "tgates_writer" ".qasm" in
           Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
           Out_channel.with_open_bin path (fun oc ->
               Qasm.write_header oc n;
               List.iter (Qasm.write_instr oc) instrs);
           List.for_all (fun i -> Qasm.instr_to_string i = reference_instr i) instrs
           && Qasm.to_string c = want
           && read_file path = want));
  ]

let suite = suite @ writer_tests
