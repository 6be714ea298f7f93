(* Tests for the streaming layer: incremental QASM parsing (chunk
   boundaries, CRLF, trailing garbage, error positions), the windowed
   optimizer, and the streaming engine's byte-identity with the
   in-memory path across window sizes and job counts. *)

let rng = Random.State.make [| 5150 |]

let random_circuit n gates =
  let instrs = ref [] in
  for _ = 1 to gates do
    let q = Random.State.int rng n in
    let q2 = (q + 1 + Random.State.int rng (n - 1)) mod n in
    let angle = Random.State.float rng 6.0 -. 3.0 in
    let i =
      match Random.State.int rng 10 with
      | 0 -> Circuit.instr Qgate.H [| q |]
      | 1 -> Circuit.instr (Qgate.Rz angle) [| q |]
      | 2 -> Circuit.instr (Qgate.Rx angle) [| q |]
      | 3 -> Circuit.instr (Qgate.U3 (angle, -.angle, angle /. 3.0)) [| q |]
      | 4 -> Circuit.instr Qgate.T [| q |]
      | 5 -> Circuit.instr Qgate.X [| q |]
      | 6 -> Circuit.instr Qgate.CX [| q; q2 |]
      | 7 -> Circuit.instr Qgate.CZ [| q; q2 |]
      | 8 -> Circuit.instr Qgate.Swap [| q; q2 |]
      | _ -> Circuit.instr (Qgate.Ry angle) [| q |]
    in
    instrs := i :: !instrs
  done;
  Circuit.make n (List.rev !instrs)

let circuits_equal a b = Unitary.distance a b < 1e-7

(* Every error case holds whether each byte is its own refill (chunk 1)
   or the whole input is one. *)
let check_error name text eline ecol emsg_prefix =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun chunk ->
          let name = Printf.sprintf "%s (chunk %d)" name chunk in
          match Qasm_reader.of_stream (Qasm_reader.stream_of_string ~chunk text) with
          | _ -> Alcotest.failf "%s: expected Parse_error" name
          | exception Qasm_reader.Parse_error (_, l, c, m) ->
              Alcotest.(check int) (name ^ " line") eline l;
              Alcotest.(check int) (name ^ " col") ecol c;
              Alcotest.(check bool)
                (Printf.sprintf "%s message %S starts with %S" name m emsg_prefix)
                true
                (String.length m >= String.length emsg_prefix
                && String.sub m 0 (String.length emsg_prefix) = emsg_prefix))
        [ 1; 65536 ])

let reader_tests =
  [
    Alcotest.test_case "parse is chunk-size invariant" `Quick (fun () ->
        (* Comments, blank lines, expressions, multi-operand gates —
           every byte offset becomes a refill boundary at chunk=1. *)
        let text =
          "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n// a comment that spans // weird // marks\n\
           qreg q[3];\n\nh q[0]; // trailing comment\nrz(3*pi/8) q[1];\ncx q[0],q[2];\n\
           u3(0.1,-0.2,0.3) q[2]; \nccx q[0],q[1],q[2];\nbarrier q;\nswap q[1],q[2];\n"
        in
        let want = Qasm.to_string (Qasm_reader.of_string text) in
        List.iter
          (fun chunk ->
            let got =
              Qasm.to_string (Qasm_reader.of_stream (Qasm_reader.stream_of_string ~chunk text))
            in
            Alcotest.(check string) (Printf.sprintf "chunk=%d" chunk) want got)
          [ 1; 2; 3; 5; 7; 16; 64; 65536 ]);
    Alcotest.test_case "CRLF input parses identically" `Quick (fun () ->
        let lf = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(pi/4) q[1];\ncx q[0],q[1];\n" in
        let crlf = String.concat "\r\n" (String.split_on_char '\n' lf) in
        Alcotest.(check string) "same circuit"
          (Qasm.to_string (Qasm_reader.of_string lf))
          (Qasm.to_string (Qasm_reader.of_string ~file:"crlf" crlf)));
    Alcotest.test_case "empty and comment-only inputs are empty circuits" `Quick (fun () ->
        List.iter
          (fun text ->
            let c = Qasm_reader.of_string text in
            Alcotest.(check int) "qubits" 0 c.Circuit.n_qubits;
            Alcotest.(check int) "gates" 0 (Circuit.length c))
          [ ""; "\n"; "// only a comment\n"; "\n\n// c\n\n" ]);
    Alcotest.test_case "final line without newline still parses" `Quick (fun () ->
        let c = Qasm_reader.of_string "qreg q[1];\nh q[0];" in
        Alcotest.(check int) "gates" 1 (Circuit.length c));
    Alcotest.test_case "incremental events arrive per statement" `Quick (fun () ->
        let sr = Qasm_reader.stream_of_string ~chunk:4 "qreg q[2];\nh q[0];\ncx q[0],q[1];\n" in
        (match Qasm_reader.next_event sr with
        | Some (Qasm_reader.Qreg 2) -> ()
        | _ -> Alcotest.fail "expected Qreg 2");
        Alcotest.(check int) "n_qubits" 2 (Qasm_reader.stream_n_qubits sr);
        (match Qasm_reader.next_event sr with
        | Some (Qasm_reader.Instr { Circuit.gate = Qgate.H; _ }) -> ()
        | _ -> Alcotest.fail "expected h");
        (match Qasm_reader.next_event sr with
        | Some (Qasm_reader.Instr { Circuit.gate = Qgate.CX; _ }) -> ()
        | _ -> Alcotest.fail "expected cx");
        Alcotest.(check bool) "eof" true (Qasm_reader.next_event sr = None);
        Alcotest.(check bool) "eof again" true (Qasm_reader.next_event sr = None));
    check_error "trailing garbage after final statement errors"
      "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n@@@ junk" 4 5 "expected q[i]";
    check_error "truncated expression points at the token"
      "qreg q[2];\nrz(pi/) q[0];\n" 2 7 "malformed expression";
    check_error "unbalanced paren points at the paren"
      "qreg q[2];\nrz(0.5 q[0];\n" 2 3 "unbalanced (";
    check_error "out-of-range qubit points at the operand"
      "qreg q[2];\nrz(0.5) q[5];\n" 2 9 "qubit 5 out of range";
    check_error "gate before qreg" "h q[0];\n" 1 1 "gate before qreg";
    check_error "unsupported gate" "qreg q[1];\nfoo q[0];\n" 2 1 "unsupported gate foo/0";
    check_error "numeral with a bare exponent" "qreg q[1];\nrz(1e) q[0];\n" 2 4
      "malformed number 1e";
    check_error "numeral with two points" "qreg q[1];\nrz(1.2.3) q[0];\n" 2 4
      "malformed number 1.2.3";
    check_error "lone point" "qreg q[1];\nrz(.) q[0];\n" 2 4 "malformed number .";
    check_error "malformed numeral inside an expression" "qreg q[1];\nrz(pi/ 2e+) q[0];\n" 2 8
      "malformed number 2e+";
  ]

(* A parse outcome as something comparable: the circuit's canonical
   text, or the error's position and message. *)
let outcome parse =
  match parse () with
  | c -> Ok (Qasm.to_string c)
  | exception Qasm_reader.Parse_error (_, l, c, m) -> Error (Printf.sprintf "%d:%d: %s" l c m)
  | exception Invalid_argument m -> Error ("invalid argument: " ^ m)

let parse_at chunk text () = Qasm_reader.of_stream (Qasm_reader.stream_of_string ~chunk text)

(* Lines of random fragments, valid and not, so that every error path
   (and the order in which a line's errors are raised) is exercised. *)
let fragment_gen =
  QCheck2.Gen.oneofl
    [ "h"; "H"; "rz"; "Rx"; "ry"; "u3"; "U"; "u1"; "cx"; "CZ"; "ccx"; "toffoli"; "swap";
      "sdg"; "Tdg"; "foo"; "qreg"; "qreg q[2]"; "creg c[1]"; "OPENQASM 2.0"; "measure";
      "barrier"; "include"; "("; ")"; ","; ", "; " "; "  "; "\t"; "\r"; "\012"; "q[0]";
      "q[1]"; "q[2]"; "q[7]"; "q[-1]"; "q[x]"; "q[ 1]"; "q[0x1]"; "q[1_0]"; "q["; "["; "]";
      "r[1]"; "pi"; "PI"; "0.5"; "-0.25"; "1e"; "1.2.3"; "."; "2e-3"; "1E+2"; "-"; "+"; "*";
      "/"; "//"; ";"; "//c"; "é" ]

let line_gen = QCheck2.Gen.(map (String.concat "") (list_size (int_range 0 10) fragment_gen))

let reference_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:2000 ~name:"in-place lexer matches the substring parser"
         QCheck2.Gen.(pair bool (list_size (int_range 1 4) line_gen))
         (fun (declare, lines) ->
           let text = String.concat "\n" ((if declare then [ "qreg q[3];" ] else []) @ lines) in
           let want = outcome (fun () -> Qasm_reference.of_string text) in
           List.for_all (fun chunk -> outcome (parse_at chunk text) = want) [ 1; 7; 65536 ]));
  ]

(* Random circuits rendered with random formatting must parse to what
   their canonical text parses to.  Angles are written as numerals in
   several notations or as pi expressions; the expected value is what
   that text denotes ([float_of_string] of the numeral, or the
   expression evaluated left to right as the parser does). *)
let formatting_tests =
  let open QCheck2.Gen in
  let space = oneofl [ ""; " "; "\t"; "  "; " \t " ] in
  let some_space = oneofl [ " "; "\t"; "  "; "\t " ] in
  let angle =
    oneof
      [
        map (fun x -> (Printf.sprintf "%.17g" x, x)) (float_range (-7.0) 7.0);
        map (fun x -> let s = Printf.sprintf "%.6e" x in (s, float_of_string s)) (float_range (-7.0) 7.0);
        map (fun x -> let s = Printf.sprintf "%.4f" x in (s, float_of_string s)) (float_range (-7.0) 7.0);
        map2
          (fun k m -> (Printf.sprintf "%d*pi/%d" k m, float_of_int k *. Float.pi /. float_of_int m))
          (int_range 1 15) (int_range 1 16);
        map (fun m -> (Printf.sprintf "-pi/%d" m, -.Float.pi /. float_of_int m)) (int_range 1 16);
        map (fun m -> (Printf.sprintf "pi / %d" m, Float.pi /. float_of_int m)) (int_range 1 16);
      ]
  in
  let case = oneofl [ String.lowercase_ascii; String.uppercase_ascii; String.capitalize_ascii ] in
  let n = 4 in
  let distinct k =
    map (fun l -> List.filteri (fun i _ -> i < k) l) (shuffle_l [ 0; 1; 2; 3 ])
  in
  (* (spellings, gate, arity, angle texts) *)
  let gate =
    oneof
      [
        map (fun g -> ([ Qgate.to_string g ], (fun _ -> g), 1, 0))
          (oneofl Qgate.[ H; X; Y; Z; S; Sdg; T; Tdg ]);
        return ([ "cx" ], (fun _ -> Qgate.CX), 2, 0);
        return ([ "cz" ], (fun _ -> Qgate.CZ), 2, 0);
        return ([ "swap" ], (fun _ -> Qgate.Swap), 2, 0);
        return ([ "ccx"; "toffoli" ], (fun _ -> Qgate.Ccx), 3, 0);
        return ([ "rx" ], (fun a -> Qgate.Rx a.(0)), 1, 1);
        return ([ "ry" ], (fun a -> Qgate.Ry a.(0)), 1, 1);
        return ([ "rz"; "u1" ], (fun a -> Qgate.Rz a.(0)), 1, 1);
        return ([ "u3"; "u" ], (fun a -> Qgate.U3 (a.(0), a.(1), a.(2))), 1, 3);
      ]
  in
  (* One statement: its formatted text and its instruction. *)
  let statement =
    gate >>= fun (names, make, arity, nargs) ->
    oneofl names >>= fun name ->
    case >>= fun case ->
    list_repeat nargs (triple space angle space) >>= fun args ->
    distinct arity >>= fun qubits ->
    list_repeat arity (pair space space) >>= fun pads ->
    triple space some_space space >>= fun (lead, gap, tail) ->
    oneofl [ ""; " // note"; "\t//q[9] rz(" ] >|= fun comment ->
    let arg_text =
      if nargs = 0 then ""
      else
        "(" ^ String.concat "," (List.map (fun (l, (t, _), r) -> l ^ t ^ r) args) ^ ")"
    in
    let operands =
      String.concat ","
        (List.map2 (fun q (l, r) -> l ^ Printf.sprintf "q[%d]" q ^ r) qubits pads)
    in
    let text = lead ^ case name ^ arg_text ^ gap ^ operands ^ tail ^ ";" ^ tail ^ comment in
    let values = Array.of_list (List.map (fun (_, (_, v), _) -> v) args) in
    (text, Circuit.instr (make values) (Array.of_list qubits))
  in
  let program =
    pair (list_size (int_range 0 25) (pair statement (oneofl [ None; Some ""; Some "// comment" ])))
      (pair bool (oneofl [ "\n"; "\r\n" ]))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"random formatting parses like the canonical text"
         program (fun (stmts, (final_newline, eol)) ->
           let instrs = List.map (fun ((_, i), _) -> i) stmts in
           let canonical = Qasm.to_string (Circuit.make n instrs) in
           let lines =
             [ "OPENQASM 2.0;"; "include \"qelib1.inc\";"; Printf.sprintf "qreg q[%d];" n ]
             @ List.concat_map
                 (fun ((text, _), extra) -> text :: Option.to_list extra)
                 stmts
           in
           let text = String.concat eol lines ^ if final_newline then eol else "" in
           let want = outcome (parse_at 65536 canonical) in
           want = Ok canonical
           && List.for_all (fun chunk -> outcome (parse_at chunk text) = want) [ 1; 7; 65536 ]));
  ]

let window_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"windowed optimizer preserves semantics (Rz IR)"
         QCheck2.Gen.unit (fun () ->
           let c = random_circuit 3 25 in
           circuits_equal c (Stream_opt.run ~window:4 Settings.Rz_ir c)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"windowed optimizer preserves semantics (U3 IR)"
         QCheck2.Gen.unit (fun () ->
           let c = random_circuit 3 25 in
           circuits_equal c (Stream_opt.run ~window:8 Settings.U3_ir c)));
    Alcotest.test_case "adjacent Rz merge, self-inverse pairs cancel" `Quick (fun () ->
        let c =
          Circuit.of_list 2
            [
              (Qgate.Rz 0.3, [ 0 ]); (Qgate.Rz 0.4, [ 0 ]); (Qgate.H, [ 1 ]); (Qgate.H, [ 1 ]);
              (Qgate.CX, [ 0; 1 ]); (Qgate.CX, [ 0; 1 ]);
            ]
        in
        let out = Stream_opt.run ~window:8 Settings.Rz_ir c in
        match out.Circuit.instrs with
        | [ { Circuit.gate = Qgate.Rz a; _ } ] ->
            Alcotest.(check (float 1e-12)) "merged angle" 0.7 a
        | _ -> Alcotest.failf "expected a single rz, got %d gates" (Circuit.length out));
    Alcotest.test_case "Rz phase-folds through a CX control" `Quick (fun () ->
        let c =
          Circuit.of_list 2
            [ (Qgate.Rz 0.3, [ 0 ]); (Qgate.CX, [ 0; 1 ]); (Qgate.Rz 0.4, [ 0 ]) ]
        in
        let out = Stream_opt.run ~window:8 Settings.Rz_ir c in
        Alcotest.(check int) "two gates" 2 (Circuit.length out);
        Alcotest.(check bool) "equivalent" true (circuits_equal c out));
    Alcotest.test_case "window bound holds: W=1 is pass-through lowering" `Quick (fun () ->
        let c = random_circuit 3 30 in
        let out = Stream_opt.run ~window:1 Settings.Rz_ir c in
        Alcotest.(check bool) "equivalent" true (circuits_equal c out));
  ]

(* The window against [Stream_opt_reference], the boxed ring it
   replaced: both are fed the same instructions, and after every push
   they must have emitted as many gates, and at the end the same gates,
   angles compared by bits, with the same [gates_in] and [gates_out]. *)
let window_mismatch ir window (c : Circuit.t) =
  let t = Stream_opt.create ~window ir and r = Stream_opt_reference.create ~window ir in
  let out = ref [] and want = ref [] and n = ref 0 and n' = ref 0 in
  let emit g = incr n; out := g :: !out and emit' g = incr n'; want := g :: !want in
  let in_step =
    List.for_all
      (fun i ->
        Stream_opt.push t i ~emit;
        Stream_opt_reference.push r i ~emit:emit';
        !n = !n')
      c.Circuit.instrs
  in
  Stream_opt.flush t ~emit;
  Stream_opt_reference.flush r ~emit:emit';
  let same (x : Circuit.instr) (y : Circuit.instr) =
    x = y && Test_circuit.angle_bits x = Test_circuit.angle_bits y
  in
  let label what = Some (Printf.sprintf "%s, window %d: %s" (Settings.ir_to_string ir) window what) in
  if not in_step then label "emitted counts differ after a push"
  else if List.length !out <> List.length !want || not (List.for_all2 same !out !want) then
    label "emitted gates differ"
  else if Stream_opt.gates_in t <> Stream_opt_reference.gates_in r then label "gates_in differs"
  else if Stream_opt.gates_out t <> Stream_opt_reference.gates_out r then label "gates_out differs"
  else None

let oracle_windows = [ 1; 2; 3; 8; 64 ]

let window_oracle_mismatch c =
  List.find_map
    (fun ir -> List.find_map (fun w -> window_mismatch ir w c) oracle_windows)
    [ Settings.Rz_ir; Settings.U3_ir ]

(* Random circuits for the window oracle: 1–5 qubits, up to 80 gates
   over every gate the window lowers or folds, angles drawn from a
   palette of one to four values and their negations, and one gate in
   four repeated at once, so that runs fuse (to identity too), Rz
   phases cancel and self-inverse pairs meet. *)
let gen_window_circuit =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let* palette =
    list_size (int_range 1 4)
      (oneof [ float_range (-3.2) 3.2; map (fun k -> float_of_int k *. Float.pi /. 4.0) (int_range (-8) 8) ])
  in
  let angle = map2 (fun a neg -> if neg then -.a else a) (oneofl palette) bool in
  let one_qubit =
    let* q = int_bound (n - 1) in
    let+ g =
      oneof
        [
          oneofl Qgate.[ H; X; Y; Z; S; Sdg; T; Tdg ];
          map (fun a -> Qgate.Rx a) angle;
          map (fun a -> Qgate.Ry a) angle;
          map (fun a -> Qgate.Rz a) angle;
          map3 (fun t p l -> Qgate.U3 (t, p, l)) angle angle angle;
        ]
    in
    Circuit.instr g [| q |]
  in
  let two_qubit =
    let* q = int_bound (n - 1) and* d = int_bound (max 0 (n - 2)) and* g = oneofl Qgate.[ CX; CX; CZ; Swap ] in
    let r = (q + 1 + d) mod n in
    oneofl [ Circuit.instr g [| q; r |]; Circuit.instr g [| r; q |] ]
  in
  let ccx =
    let* q = int_bound (n - 1) and* d = int_bound (max 0 (n - 3)) in
    pure (Circuit.instr Qgate.Ccx [| q; (q + 1 + d) mod n; (q + 2 + d) mod n |])
  in
  let instr =
    match n with
    | 1 -> one_qubit
    | 2 -> frequency [ (3, one_qubit); (2, two_qubit) ]
    | _ -> frequency [ (6, one_qubit); (4, two_qubit); (1, ccx) ]
  in
  let twice = frequencyl [ (3, false); (1, true) ] in
  let+ gates = list_size (int_bound 80) (map2 (fun i twice -> if twice then [ i; i ] else [ i ]) instr twice) in
  Circuit.make n (List.filteri (fun k _ -> k < 80) (List.concat gates))

let window_oracle_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"window equals its boxed reference on random circuits"
         ~print:Qasm.to_string gen_window_circuit (fun c ->
           match window_oracle_mismatch c with
           | None -> true
           | Some what -> QCheck2.Test.fail_report what));
    Alcotest.test_case "window equals its boxed reference on every suite circuit" `Quick (fun () ->
        List.iter
          (fun (b : Suite.benchmark) ->
            match window_oracle_mismatch b.Suite.circuit with
            | None -> ()
            | Some what -> Alcotest.failf "%s: %s" b.Suite.name what)
          (Suite.all ()));
  ]

(* The engine is deterministic per key and emits in input order, so the
   streamed path must match the in-memory reference byte for byte at
   every window / jobs combination — cache-cold each time. *)
let engine_tests =
  let qasm_of n instrs = Qasm.to_string (Circuit.make n instrs) in
  let stream_via_qasm cfg text =
    let sr = Qasm_reader.stream_of_string ~chunk:13 text in
    let out = ref [] in
    let nq = ref 0 in
    match
      Stream_compile.run_qasm cfg sr
        ~on_qreg:(fun n -> nq := n)
        ~emit:(fun i -> out := i :: !out)
    with
    | Error f -> Alcotest.failf "stream failed: %s" (Robust.failure_to_string f)
    | Ok st -> (qasm_of !nq (List.rev !out), st)
  in
  [
    Alcotest.test_case "streamed output is byte-identical to the in-memory path" `Slow (fun () ->
        let c = random_circuit 3 40 in
        let text = Qasm.to_string c in
        List.iter
          (fun (window, jobs, ir) ->
            let label = Printf.sprintf "window=%d jobs=%d" window jobs in
            Stream_compile.clear_cache ();
            let cfg = Stream_compile.config ~epsilon:0.15 ~ir ~window ~jobs () in
            let want, wstats =
              match Stream_compile.run_circuit cfg c with
              | Ok (rc, st) -> (Qasm.to_string rc, st)
              | Error f -> Alcotest.failf "reference failed: %s" (Robust.failure_to_string f)
            in
            Stream_compile.clear_cache ();
            let got, gstats = stream_via_qasm cfg text in
            Alcotest.(check string) label want got;
            Alcotest.(check int) (label ^ " gates_out") wstats.Stream_compile.gates_out
              gstats.Stream_compile.gates_out;
            Alcotest.(check int) (label ^ " t_count") wstats.Stream_compile.t_count
              gstats.Stream_compile.t_count)
          [
            (1, 1, Settings.Rz_ir);
            (4, 2, Settings.Rz_ir);
            (64, 4, Settings.Rz_ir);
            (8, 2, Settings.U3_ir);
          ]);
    Alcotest.test_case "dedup: repeated angles synthesize once" `Quick (fun () ->
        Stream_compile.clear_cache ();
        (* H between the rotations keeps the window from folding them,
           so all 20 occurrences reach the planner with the same key. *)
        let instrs =
          List.concat
            (List.init 20 (fun _ ->
                 [ Circuit.instr (Qgate.Rz 0.31) [| 0 |]; Circuit.instr Qgate.H [| 0 |] ]))
        in
        let cfg = Stream_compile.config ~epsilon:0.1 ~window:1 () in
        match Stream_compile.run_circuit cfg (Circuit.make 1 instrs) with
        | Error f -> Alcotest.failf "failed: %s" (Robust.failure_to_string f)
        | Ok (_, st) ->
            Alcotest.(check int) "occurrences" 20 st.Stream_compile.rotations_synthesized;
            Alcotest.(check int) "unique" 1 st.Stream_compile.unique_syntheses;
            Alcotest.(check int) "dedup hits" 19 st.Stream_compile.dedup_hits);
    Alcotest.test_case "queue-depth gauge and peak-heap metrics are live" `Quick (fun () ->
        let cfg = Stream_compile.config ~epsilon:0.1 ~jobs:2 () in
        let c = random_circuit 2 30 in
        match Stream_compile.run_circuit cfg c with
        | Error f -> Alcotest.failf "failed: %s" (Robust.failure_to_string f)
        | Ok (_, st) ->
            Alcotest.(check bool) "peak heap sampled" true (st.Stream_compile.peak_heap_words > 0);
            Alcotest.(check bool) "heap gauge registered" true
              (Obs.gauge_value (Obs.gauge "obs.heap.peak_words") > 0.0);
            (* The queue-depth gauge must exist (exporters pick it up);
               its instantaneous value is timing-dependent. *)
            Alcotest.(check bool) "queue gauge registered" true
              (Obs.gauge_value (Obs.gauge "obs.planner.queue_depth") >= 0.0));
    Alcotest.test_case "ledger holds one record per rotation occurrence" `Quick (fun () ->
        (* The h between the rotations keeps the window from merging
           them: five occurrences of one key, synthesized once. *)
        let c =
          Circuit.make 1
            (List.concat
               (List.init 5 (fun _ ->
                    [ Circuit.instr (Qgate.Rz 0.3) [| 0 |]; Circuit.instr Qgate.H [| 0 |] ])))
        in
        List.iter
          (fun (jobs, cold) ->
            let label = Printf.sprintf "jobs=%d %s memo" jobs (if cold then "cold" else "warm") in
            if cold then Stream_compile.clear_cache ();
            match
              Test_metrics.recorded (fun () ->
                  Stream_compile.run_circuit (Stream_compile.config ~epsilon:0.1 ~jobs ()) c)
            with
            | Error f, _ -> Alcotest.failf "%s: %s" label (Robust.failure_to_string f)
            | Ok (_, st), records ->
                Alcotest.(check int) (label ^ " rotations") 5 st.Stream_compile.rotations_synthesized;
                Alcotest.(check int) (label ^ " records") st.Stream_compile.rotations_synthesized
                  (List.length records);
                let fresh = List.filter (fun r -> not r.Ledger.cached) records in
                Alcotest.(check int) (label ^ " fresh records") (if cold then 1 else 0)
                  (List.length fresh))
          [ (1, true); (1, false); (2, true); (2, false) ]);
    Alcotest.test_case "gate counters match the run, clean or aborted" `Quick (fun () ->
        let c_in = Obs.counter "obs.stream.gates_in" and c_out = Obs.counter "obs.stream.gates_out" in
        (* Past 1024 gates, so counters are added mid-run as well as at exit. *)
        let c =
          Circuit.make 2
            (List.init 2500 (fun k ->
                 match k mod 5 with
                 | 0 -> Circuit.instr Qgate.H [| 0 |]
                 | 1 -> Circuit.instr Qgate.CX [| 0; 1 |]
                 | 2 -> Circuit.instr (Qgate.Rz (if k mod 2 = 0 then 0.3 else 0.7)) [| 1 |]
                 | 3 -> Circuit.instr Qgate.T [| 0 |]
                 | _ -> Circuit.instr Qgate.H [| 1 |]))
        in
        let run (c : Circuit.t) =
          let rem = ref c.Circuit.instrs and pulled = ref 0 and emitted = ref 0 in
          let next () =
            match !rem with
            | [] -> None
            | i :: tl ->
                rem := tl;
                incr pulled;
                Some i
          in
          let in0 = Obs.counter_value c_in and out0 = Obs.counter_value c_out in
          let r =
            Stream_compile.run (Stream_compile.config ~epsilon:0.1 ()) ~next ~emit:(fun _ ->
                incr emitted)
          in
          Alcotest.(check int) "gates_in counter" !pulled (Obs.counter_value c_in - in0);
          Alcotest.(check int) "gates_out counter" !emitted (Obs.counter_value c_out - out0);
          (r, !pulled, !emitted)
        in
        Stream_compile.clear_cache ();
        (match run c with
        | Error f, _, _ -> Alcotest.failf "clean run failed: %s" (Robust.failure_to_string f)
        | Ok st, pulled, emitted ->
            Alcotest.(check int) "stats gates_in" pulled st.Stream_compile.gates_in;
            Alcotest.(check int) "stats gates_out" emitted st.Stream_compile.gates_out);
        let specs =
          match Robust.Fault.parse "*=fail" with Ok (_, s) -> s | Error e -> Alcotest.fail e
        in
        (* 1500 Clifford gates, then a rotation whose synthesis fails. *)
        let aborted =
          Circuit.make 2
            (List.init 1500 (fun k ->
                 if k mod 2 = 0 then Circuit.instr Qgate.H [| 0 |] else Circuit.instr Qgate.CX [| 0; 1 |])
            @ List.init 50 (fun _ -> Circuit.instr (Qgate.Rz 0.41) [| 1 |]))
        in
        Stream_compile.clear_cache ();
        Robust.Fault.with_faults specs (fun () ->
            match run aborted with
            | Ok _, _, _ -> Alcotest.fail "expected a failure under *=fail"
            | Error _, pulled, emitted ->
                Alcotest.(check bool) "consumed past one batch" true (pulled > 1024);
                Alcotest.(check bool) "emitted some" true (emitted > 0));
        Stream_compile.clear_cache ());
    Alcotest.test_case "synthesis failure aborts cleanly with jobs > 1" `Quick (fun () ->
        let specs =
          match Robust.Fault.parse "*=fail" with
          | Ok (_, s) -> s
          | Error e -> Alcotest.fail e
        in
        Robust.Fault.with_faults specs (fun () ->
            Stream_compile.clear_cache ();
            let cfg = Stream_compile.config ~epsilon:0.05 ~jobs:3 ~window:4 () in
            let c =
              Circuit.make 1 (List.init 8 (fun i -> Circuit.instr (Qgate.Rz (0.1 +. float_of_int i)) [| 0 |]))
            in
            match Stream_compile.run_circuit cfg c with
            | Ok _ -> Alcotest.fail "expected a failure under *=fail"
            | Error _ -> ());
        Stream_compile.clear_cache ());
    Alcotest.test_case "every domain of a run reports busy seconds" `Quick (fun () ->
        (* Each job stalls 10 ms, so the worker (domain 1) takes some of
           the sixteen, and the producer (domain 0) runs queued ones in
           the final drain instead of blocking. *)
        let busy i =
          Obs.gauge_value (Obs.gauge (Printf.sprintf "obs.planner.domain.%d.busy_s" i))
        in
        let b0 = busy 0 and b1 = busy 1 in
        let specs =
          match Robust.Fault.parse "trasyn=stall:0.01" with
          | Ok (_, s) -> s
          | Error e -> Alcotest.fail e
        in
        let cfg =
          Stream_compile.config ~epsilon:0.2 ~ir:Settings.U3_ir ~jobs:2
            ~trasyn:{ Trasyn.default_config with table_t = 6; samples = 16 } ~budgets:[ 6 ] ()
        in
        let c =
          Circuit.make 16
            (List.init 16 (fun i ->
                 Circuit.instr (Qgate.U3 (0.3 +. (0.1 *. float_of_int i), 0.7, -0.4)) [| i |]))
        in
        Stream_compile.clear_cache ();
        (match Robust.Fault.with_faults specs (fun () -> Stream_compile.run_circuit cfg c) with
        | Error f -> Alcotest.failf "failed: %s" (Robust.failure_to_string f)
        | Ok (_, st) -> Alcotest.(check int) "sixteen jobs" 16 st.Stream_compile.unique_syntheses);
        Alcotest.(check bool) "worker busy" true (busy 1 > b1);
        Alcotest.(check bool) "producer busy" true (busy 0 > b0));
    Alcotest.test_case "a run with one job or none starts no worker" `Quick (fun () ->
        (* Cold: one job (two occurrences of one angle); warm: none. *)
        let domains = Obs.counter "obs.planner.domains" in
        let cfg = Stream_compile.config ~epsilon:0.1 ~jobs:4 () in
        let c =
          Circuit.make 2
            [ Circuit.instr (Qgate.Rz 0.3) [| 0 |]; Circuit.instr Qgate.H [| 1 |];
              Circuit.instr (Qgate.Rz 0.3) [| 1 |] ]
        in
        Stream_compile.clear_cache ();
        List.iter
          (fun label ->
            let d0 = Obs.counter_value domains in
            (match Stream_compile.run_ir cfg c with
            | Error f -> Alcotest.failf "%s: %s" label (Robust.failure_to_string f)
            | Ok _ -> ());
            Alcotest.(check int) (label ^ ": the producer only") 1 (Obs.counter_value domains - d0))
          [ "cold"; "warm" ]);
    Alcotest.test_case "a faulted rotation's answer does not depend on the run's order" `Quick
      (fun () ->
        (* Under gridsynth=fail@0.5 some rotations fall back, and which
           ones depends on each rotation alone: compiled in reverse order,
           every angle gets the word and backend it got before. *)
        let angles = List.init 32 (fun i -> -3.0 +. (0.19 *. float_of_int i)) in
        let cfg = Stream_compile.config ~epsilon:0.1 ~jobs:1 () in
        let answers angles =
          let backends = Hashtbl.create 32 in
          let c =
            Circuit.make (List.length angles)
              (List.mapi (fun q a -> Circuit.instr (Qgate.Rz a) [| q |]) angles)
          in
          Stream_compile.clear_cache ();
          match
            Stream_compile.run_ir
              ~on_degraded:(fun g a -> Hashtbl.replace backends g a.Robust.backend)
              cfg c
          with
          | Error f -> Alcotest.fail (Robust.failure_to_string f)
          | Ok (out, _) ->
              List.sort compare
                (List.mapi
                   (fun q a ->
                     let word =
                       List.filter_map
                         (fun (i : Circuit.instr) -> if i.qubits = [| q |] then Some i.gate else None)
                         out.Circuit.instrs
                     in
                     (a, word, Hashtbl.find_opt backends (Qgate.Rz a)))
                   angles)
        in
        let specs =
          match Robust.Fault.parse "gridsynth=fail@0.5,seed=3" with
          | Ok (Some seed, s) -> (seed, s)
          | _ -> Alcotest.fail "spec did not parse"
        in
        let forward, reverse =
          Robust.Fault.with_faults ~seed:(fst specs) (snd specs) (fun () ->
              let forward = answers angles in
              (forward, answers (List.rev angles)))
        in
        Stream_compile.clear_cache ();
        Alcotest.(check bool) "some rotations fell back" true
          (List.exists (fun (_, _, b) -> b <> None) forward);
        Alcotest.(check bool) "same word and backend per angle" true (forward = reverse));
  ]

(* The whole-circuit workflows run on the engine with no window; the
   code they replaced (Workflow_reference: scan, plan, execute on
   Planner, emit, no memo) is the oracle.  QASM, summed error, rotation
   count and degradation list must match field for field at jobs 1 and
   2, clean and with TRASYN failing, and the ledger must hold one record
   per rotation. *)
let workflow_tests =
  let show (s : Pipeline.synthesized) =
    ( Qasm.to_string s.Pipeline.circuit,
      Printf.sprintf "%h/%d" s.Pipeline.total_synth_error s.Pipeline.rotations_synthesized,
      List.map
        (fun (d : Pipeline.degradation) ->
          Printf.sprintf "%s %s %d %h %h" d.Pipeline.gate d.Pipeline.backend d.Pipeline.fallbacks
            d.Pipeline.achieved d.Pipeline.requested)
        s.Pipeline.degraded )
  in
  let ok label = function
    | Ok s -> s
    | Error f -> Alcotest.failf "%s: %s" label (Robust.failure_to_string f)
  in
  (* Returns whether any run reported a degradation. *)
  let agree label circuits =
    let degraded = ref false in
    List.iter
      (fun (name, c) ->
        List.iter
          (fun (ir, jobs) ->
            let label =
              Printf.sprintf "%s %s %s jobs=%d" label name
                (match ir with Settings.Rz_ir -> "gridsynth" | Settings.U3_ir -> "trasyn")
                jobs
            in
            let want = ok (label ^ " reference") (Workflow_reference.run ~ir ~jobs c) in
            Pipeline.clear_caches ();
            let got, records =
              Test_metrics.recorded (fun () ->
                  ok label
                    (Pipeline.run (Stream_compile.config ~ir ~jobs ()) c))
            in
            let wq, we, wd = show want and gq, ge, gd = show got in
            Alcotest.(check string) (label ^ " qasm") wq gq;
            Alcotest.(check string) (label ^ " error/rotations") we ge;
            Alcotest.(check (list string)) (label ^ " degraded") wd gd;
            Alcotest.(check int) (label ^ " ledger records") got.Pipeline.rotations_synthesized
              (List.length records);
            if gd <> [] then degraded := true)
          [ (Settings.Rz_ir, 1); (Settings.Rz_ir, 2); (Settings.U3_ir, 1); (Settings.U3_ir, 2) ])
      circuits;
    !degraded
  in
  let circuits ~random names =
    List.init random (fun i -> (Printf.sprintf "random-%d" i, random_circuit 3 40))
    @ List.filter_map
        (fun (b : Suite.benchmark) ->
          if List.mem b.Suite.name names then Some (b.Suite.name, b.Suite.circuit) else None)
        (Suite.all ())
  in
  [
    Alcotest.test_case "workflows = planner reference (clean)" `Slow (fun () ->
        ignore
          (agree "clean"
             (circuits ~random:3 [ "qpe-3"; "adder-3"; "qft-3"; "vqe-4-2"; "qaoa-4-p1-1" ])
            : bool));
    Alcotest.test_case "whole-circuit runs take the IR as it stands" `Quick (fun () ->
        (* Adjacent rotations that any window, even W=1, would merge:
           with no window each one is synthesized. *)
        let pair a b = Circuit.make 1 [ Circuit.instr a [| 0 |]; Circuit.instr b [| 0 |] ] in
        let gs =
          ok "gridsynth"
            (Pipeline.run ~transpile:false (Stream_compile.config ())
               (pair (Qgate.Rz 0.3) (Qgate.Rz 0.4)))
        in
        Alcotest.(check int) "Rz rotations" 2 gs.Pipeline.rotations_synthesized;
        let tr =
          ok "trasyn"
            (Pipeline.run ~transpile:false (Stream_compile.config ~ir:Settings.U3_ir ())
               (pair (Qgate.U3 (0.3, 0.2, 0.1)) (Qgate.U3 (0.5, -0.4, 0.7))))
        in
        Alcotest.(check int) "U3 rotations" 2 tr.Pipeline.rotations_synthesized);
    Alcotest.test_case "workflows = planner reference (trasyn=fail)" `Slow (fun () ->
        let specs =
          match Robust.Fault.parse "trasyn=fail" with Ok (_, s) -> s | Error e -> Alcotest.fail e
        in
        let c = circuits ~random:1 [ "qpe-3"; "adder-3" ] in
        Alcotest.(check bool) "some rotation degraded" true
          (Robust.Fault.with_faults specs (fun () -> agree "trasyn=fail" c)));
  ]

(* [Stream_compile.run] over [instrs] from a cold memo: the output text,
   the stats, and how many input gates were read before the first
   emit. *)
let run_counting_reads cfg instrs =
  let input = ref instrs and read = ref 0 and read_at_first_emit = ref 0 in
  let next () =
    match !input with
    | [] -> None
    | i :: rest ->
        input := rest;
        incr read;
        Some i
  in
  let out = Buffer.create 4096 in
  let emit i =
    if !read_at_first_emit = 0 then read_at_first_emit := !read;
    Buffer.add_string out (Qasm.instr_to_string i)
  in
  Stream_compile.clear_cache ();
  match Stream_compile.run cfg ~next ~emit with
  | Error f -> Alcotest.fail (Robust.failure_to_string f)
  | Ok st -> (Buffer.contents out, st, !read_at_first_emit)

let memo_flush_tests =
  [
    Alcotest.test_case "an occurrence served after a memo flush reuses its job's result" `Quick
      (fun () ->
        (* The window releases all three rotations at the end of input,
           so the second rz(0.3) waits behind its job's first
           occurrence.  With a one-entry memo, serving rz(0.7) flushes
           rz(0.3)'s word, and the follower must fall back to the job's
           result, kept until its key's last occurrence is served. *)
        let c =
          Circuit.make 3
            [ Circuit.instr (Qgate.Rz 0.3) [| 0 |]; Circuit.instr (Qgate.Rz 0.7) [| 1 |];
              Circuit.instr (Qgate.Rz 0.3) [| 2 |] ]
        in
        let cfg = Stream_compile.config ~epsilon:0.1 () in
        let run () =
          match Stream_compile.run_circuit cfg c with
          | Ok (out, st) -> (Qasm.to_string out, st.Stream_compile.unique_syntheses)
          | Error f -> Alcotest.fail (Robust.failure_to_string f)
        in
        Stream_compile.clear_cache ();
        let reference, _ = run () in
        Stream_compile.clear_cache ();
        Stream_compile.set_cache_capacity 1;
        Fun.protect ~finally:(fun () ->
            Stream_compile.set_cache_capacity 65_536;
            Stream_compile.clear_cache ())
        @@ fun () ->
        let flushed, unique = run () in
        Alcotest.(check string) "same output" reference flushed;
        Alcotest.(check int) "two jobs" 2 unique);
    Alcotest.test_case "config rejects a non-positive or non-finite epsilon" `Quick (fun () ->
        let rejected =
          Invalid_argument "Stream_compile.config: epsilon must be positive and finite"
        in
        List.iter
          (fun epsilon ->
            Alcotest.check_raises (Printf.sprintf "epsilon %g" epsilon) rejected (fun () ->
                ignore (Stream_compile.config ~epsilon () : Stream_compile.config)))
          [ 0.0; -0.1; Float.nan; Float.infinity ];
        Alcotest.check_raises "whole-circuit runs too" rejected (fun () ->
            ignore
              (Pipeline.run (Stream_compile.config ~epsilon:(-0.1) ()) (Circuit.make 1 [])
                : (Pipeline.synthesized, Robust.failure) result)));
    Alcotest.test_case "output flows once the reorder FIFO passes its bound" `Quick (fun () ->
        (* At jobs 2 a run's only job starts no worker: it waits in the
           queue while the tail fills the reorder FIFO behind it, until
           the FIFO's 4096-slot bound makes the producer run it. *)
        let input =
          Circuit.instr (Qgate.Rz 0.3) [| 0 |]
          :: List.concat
               (List.init 2500 (fun _ ->
                    [ Circuit.instr Qgate.H [| 0 |]; Circuit.instr Qgate.T [| 0 |] ]))
        in
        let _, _, read = run_counting_reads (Stream_compile.config ~epsilon:0.1 ~jobs:2 ()) input in
        Alcotest.(check bool) "first output before the input ends" true (read > 4096 && read < 5001));
    Alcotest.test_case "a backlog of distinct rotations past 4096 is identical at jobs 1, 2, 4"
      `Slow (fun () ->
        (* Seeded angles in (−3, 3), at least 2.4e-4 apart and off the
           π/4 grid, split by H so the window merges none: every
           rotation is its own job, and at jobs > 1 the queue holds as
           many as the reorder FIFO does. *)
        let rng = Random.State.make [| 40 |] in
        let angles =
          List.init 5200 (fun k ->
              -3.0 +. (6.0 *. (float_of_int k +. 0.1 +. Random.State.float rng 0.8) /. 5200.0))
          |> List.filter (fun a ->
                 let q = a /. (Float.pi /. 4.0) in
                 Float.abs (q -. Float.round q) > 1e-3)
        in
        let distinct = List.length angles in
        Alcotest.(check bool) "at least 5000 distinct angles" true (distinct >= 5000);
        let instrs =
          List.concat_map
            (fun a -> [ Circuit.instr (Qgate.Rz a) [| 0 |]; Circuit.instr Qgate.H [| 0 |] ])
            angles
        in
        let window = 64 in
        let run jobs =
          let out, st, read =
            run_counting_reads (Stream_compile.config ~epsilon:0.1 ~window ~jobs ()) instrs
          in
          let label = Printf.sprintf "jobs=%d" jobs in
          Alcotest.(check int) (label ^ " one job per rotation") distinct
            st.Stream_compile.unique_syntheses;
          Alcotest.(check bool) (label ^ " first emit within the FIFO bound") true
            (read <= 4096 + window + 1);
          (out, { st with Stream_compile.peak_heap_words = 0 })
        in
        Fun.protect ~finally:Stream_compile.clear_cache @@ fun () ->
        let one = run 1 in
        List.iter
          (fun jobs ->
            let out, st = run jobs in
            Alcotest.(check string) (Printf.sprintf "jobs=%d output" jobs) (fst one) out;
            Alcotest.(check bool) (Printf.sprintf "jobs=%d stats" jobs) true (st = snd one))
          [ 2; 4 ]);
  ]

(* One resolution.  [Stream_compile.resolve] must answer exactly when
   and as the unfiltered table scan (Resolve_reference) does, and every
   entry point must answer as [resolve] does: a one-gate run in each IR,
   the single-rotation API and a server batch.  The sweep sits around
   every multiple of π/4, at offsets on both sides of the 1e-6 matching
   tolerance and of the filter's 1e-5 π/4 steps, at ±4e-6 (past the
   tolerance, inside the filter: the lookup's distance check must refuse
   it), and shifted by ±2π; plus kπ/4 for huge k, whose float angle
   drifts off the grid by up to k ulps of π/4. *)
let resolve_tests =
  let pi = Float.pi in
  let offsets =
    0.0
    :: List.concat_map
         (fun j -> [ 10.0 ** float_of_int j; -.(10.0 ** float_of_int j) ])
         (List.init 9 (fun i -> i - 12))
    @ [ 4e-6; -4e-6 ]
  in
  let angles =
    -0.0
    :: List.concat_map
         (fun k ->
           List.concat_map
             (fun d ->
               List.map (fun shift -> (float_of_int k *. pi /. 4.0) +. d +. shift)
                 [ 0.0; 2.0 *. pi; -2.0 *. pi ])
             offsets)
         (List.init 17 (fun i -> i - 8))
    @ List.map (fun k -> k *. pi /. 4.0) [ 1e9; 1e12; 1e15; -1e15 ]
  in
  let policy = Stream_compile.(policy (config ~epsilon:0.07 ~ir:Settings.U3_ir ())) in
  let exact_word g =
    match Stream_compile.resolve policy g with
    | Ok r -> Option.map (fun (a : Robust.attempt) -> Ctgate.seq_to_string a.Robust.word) r.exact
    | Error f -> Alcotest.fail (Robust.failure_to_string f)
  in
  let label th = Printf.sprintf "rz(%h)" th in
  [
    Alcotest.test_case "resolve's Rz filter never hides a table match" `Quick (fun () ->
        let u3_forms =
          let table = Ma_table.get 1 in
          Array.init (Ma_table.size table) (fun i ->
              let t, p, l = Mat2.to_u3_angles (Ma_table.mat table i) in
              Qgate.U3 (t, p, l))
        in
        Alcotest.(check int) "the 96 depth-1 operators" 96 (Array.length u3_forms);
        let gates = List.map (fun th -> Qgate.Rz th) angles @ Array.to_list u3_forms in
        let exact = ref 0 in
        List.iter
          (fun g ->
            let want = Option.map Ctgate.seq_to_string (Resolve_reference.exact_word g) in
            if want <> None then incr exact;
            Alcotest.(check (option string)) (Qgate.to_string g) want (exact_word g))
          gates;
        Alcotest.(check bool) "the sweep holds both kinds" true
          (!exact > 96 && !exact < List.length gates));
    Alcotest.test_case "one triviality rule: nontrivial_rotation agrees with resolve" `Quick
      (fun () ->
        (* The same sweep runs through [Circuit.exact_word] on another
           gate set's table as well: cliffordt-weighted's depth-1 one,
           against the scan of that table. *)
        let weighted = Ma_table.get_for ~gate_set:"cliffordt-weighted" 1 in
        let u3_form g =
          let t, p, l = Mat2.to_u3_angles (Qgate.to_mat2 g) in
          Qgate.U3 (t, p, l)
        in
        let gates =
          List.concat_map
            (fun th ->
              let axis = [ Qgate.Rz th; Qgate.Rx th; Qgate.Ry th ] in
              axis @ List.map u3_form axis)
            angles
        in
        let words w = Option.map Ctgate.seq_to_string w in
        let trivial = ref 0 and weighted_trivial = ref 0 in
        List.iter
          (fun g ->
            let want = words (Resolve_reference.exact_word g) in
            if want <> None then incr trivial;
            Alcotest.(check (option string)) (Qgate.to_string g) want (exact_word g);
            Alcotest.(check bool) (Qgate.to_string g ^ " nontrivial") (want = None)
              (Circuit.nontrivial_rotation g);
            let want = words (Resolve_reference.exact_word ~table:weighted g) in
            if want <> None then incr weighted_trivial;
            Alcotest.(check (option string)) (Qgate.to_string g ^ " (weighted table)") want
              (words (Circuit.exact_word weighted g)))
          gates;
        Alcotest.(check bool) "the sweep holds both kinds" true
          (!trivial > 0 && !trivial < List.length gates
          && !weighted_trivial > 0 && !weighted_trivial < List.length gates));
    Alcotest.test_case "a rotation 1e-8 from pi/4 is counted trivial and emits T" `Quick (fun () ->
        let c = Circuit.make 1 [ Circuit.instr (Qgate.Rz 0.7853981733974483) [| 0 |] ] in
        Alcotest.(check int) "nontrivial rotations" 0 (Circuit.nontrivial_rotation_count c);
        let s = Test_pipeline.run (Stream_compile.config ()) c in
        Alcotest.(check int) "rotations synthesized" 0 s.Pipeline.rotations_synthesized;
        Alcotest.(check string) "output" (Qasm.to_string (Circuit.make 1 [ Circuit.instr Qgate.T [| 0 |] ]))
          (Qasm.to_string s.Pipeline.circuit));
    Alcotest.test_case "suite: nontrivial counts match the angle-test rule in both IRs" `Quick
      (fun () ->
        let reference (c : Circuit.t) =
          List.length (List.filter (fun i -> Resolve_reference.nontrivial i.Circuit.gate) c.Circuit.instrs)
        in
        List.iter
          (fun (b : Suite.benchmark) ->
            let c = b.Suite.circuit in
            let _, rz = Settings.best_for Settings.Rz_ir c and _, u3 = Settings.best_for Settings.U3_ir c in
            Alcotest.(check (list int)) b.Suite.name
              (List.map reference [ c; rz; u3 ])
              (List.map Circuit.nontrivial_rotation_count [ c; rz; u3 ]))
          (Suite.all ()));
    Alcotest.test_case "every entry point answers a rotation as resolve does" `Quick (fun () ->
        let epsilon = 0.07 in
        let want = List.map (fun th -> exact_word (Qgate.Rz th)) angles in
        let one_gate th = Circuit.make 1 [ Circuit.instr (Qgate.Rz th) [| 0 |] ] in
        List.iter
          (fun ir ->
            let cfg = Stream_compile.config ~epsilon ~ir () in
            List.iter2
              (fun th want ->
                let label = label th ^ " run" in
                match Stream_compile.run_circuit cfg (one_gate th) with
                | Error f -> Alcotest.failf "%s: %s" label (Robust.failure_to_string f)
                | Ok (out, st) -> (
                    Alcotest.(check int) (label ^ " synthesized") (Bool.to_int (want = None))
                      st.Stream_compile.rotations_synthesized;
                    match want with
                    | None -> ()
                    | Some w ->
                        let spliced =
                          List.rev_map
                            (fun c -> Circuit.instr (Qgate.of_ctgate c) [| 0 |])
                            (Ctgate.seq_of_string w)
                        in
                        Alcotest.(check string) (label ^ " word")
                          (Qasm.to_string (Circuit.make 1 spliced))
                          (Qasm.to_string out)))
              angles want)
          [ Settings.Rz_ir; Settings.U3_ir ];
        List.iter2
          (fun th want ->
            match Pipeline.gridsynth_rz_attempt ~epsilon th with
            | Error f -> Alcotest.failf "%s: %s" (label th) (Robust.failure_to_string f)
            | Ok a ->
                Alcotest.(check (option string)) (label th ^ " gridsynth_rz_attempt") want
                  (if a.Robust.backend = "exact" then Some (Ctgate.seq_to_string a.Robust.word)
                   else None))
          angles want;
        let responses, records =
          Test_metrics.recorded (fun () ->
              let t, out =
                Test_server.make_server
                  ~cfg:{ Server.default_config with Server.queue_limit = 4096 } ()
              in
              ignore
                (Server.submit_line t
                   (Printf.sprintf {|{"op":"batch","id":1,"requests":[%s]}|}
                      (String.concat ","
                         (List.map (Printf.sprintf {|{"op":"rz","theta":%.17g}|}) angles))));
              Server.drain t;
              out ())
        in
        let str k j =
          match Obs.Json.member k j with
          | Some (Obs.Json.Str s) -> s
          | _ -> Alcotest.failf "no %s in %s" k (Obs.Json.to_string j)
        in
        match List.map Obs.Json.parse responses with
        | [ Ok batch ] -> (
            match Obs.Json.member "results" batch with
            | Some (Obs.Json.Arr results) ->
                List.iteri
                  (fun i (th, (want, r)) ->
                    let label = label th ^ " server" in
                    let exact = str "source" r = "exact" in
                    Alcotest.(check (option string)) label want
                      (if exact then Some (str "word" r) else None);
                    if not exact then
                      let rid = Printf.sprintf "r1.%d" i in
                      match List.filter (fun l -> l.Ledger.request_id = rid) records with
                      | [ record ] ->
                          Alcotest.(check string) (label ^ " target = ledger target")
                            record.Ledger.target (str "target" r)
                      | rs -> Alcotest.failf "%s: %d ledger records" label (List.length rs))
                  (List.combine angles (List.combine want results))
            | _ -> Alcotest.fail "no batch results")
        | _ -> Alcotest.failf "expected one batch response, got %d" (List.length responses));
    Alcotest.test_case "suite: the Rz workflow synthesizes its nontrivial rotations" `Slow
      (fun () ->
        let cfg = Stream_compile.config () in
        List.iter
          (fun (b : Suite.benchmark) ->
            let s = Test_pipeline.run cfg b.Suite.circuit in
            Alcotest.(check int) b.Suite.name
              (Circuit.nontrivial_rotation_count s.Pipeline.transpiled)
              s.Pipeline.rotations_synthesized)
          (Suite.all ()));
  ]

let config_tests =
  [
    Alcotest.test_case "config refuses the TRASYN settings synthesize refuses" `Quick (fun () ->
        let d = Stream_compile.default_trasyn in
        List.iter
          (fun (trasyn, budgets, msg) ->
            Alcotest.check_raises msg
              (Invalid_argument ("Stream_compile.config: " ^ msg))
              (fun () -> ignore (Stream_compile.config ~trasyn ~budgets ())))
          [
            ({ d with samples = 0; beam = 0 }, Synth.default_budgets, "samples below 1");
            ({ d with beam = -1 }, Synth.default_budgets, "negative beam");
            (d, [], "empty budget list");
            (d, [ 10; -1 ], "negative budget");
          ];
        (* Refused before a rotation is read: the repro u3(0.4, 1.1, -0.7)
           at ε 0.07 used to come back from the gridsynth rung with 2
           fallbacks. *)
        Alcotest.check_raises "u3 run" (Invalid_argument "Stream_compile.config: samples below 1")
          (fun () ->
            let cfg =
              Stream_compile.config ~ir:Settings.U3_ir ~epsilon:0.07
                ~trasyn:{ d with samples = 0; beam = 0 } ()
            in
            ignore (Stream_compile.synthesize cfg (Qgate.U3 (0.4, 1.1, -0.7)))));
  ]

(* The reader keeps the last plain numeral's text and value.  A line
   must parse to what it parses to alone, whatever numeral came before
   it: repeats, alternations, negations, and spellings of one value
   that differ in their bytes or only in their length. *)
let numeral_memo_tests =
  let spellings =
    [ "0.1"; "0.10"; "0.100"; "1e-3"; "1e-03"; "1E-3"; "0.001"; "0.5"; "0.55"; "0.555"; "5"; "5.";
      "5.0"; "55"; ".5"; "2e-3"; "3.14159"; "3.1415"; "1e10"; "1e1"; "0.1e1"; "1.0e+1" ]
  in
  let alone text = Qasm_reader.of_string ("qreg q[1];\n" ^ text ^ "\n") in
  let gate_bits (c : Circuit.t) = List.map Test_circuit.angle_bits c.Circuit.instrs in
  let check_lines lines =
    let text = String.concat "\n" ("qreg q[1];" :: lines) ^ "\n" in
    let want = List.concat_map (fun l -> gate_bits (alone l)) lines in
    List.for_all
      (fun chunk -> gate_bits (Qasm_reader.of_stream (Qasm_reader.stream_of_string ~chunk text)) = want)
      [ 1; 7; 65536 ]
  in
  let line (sign, num, form) =
    let v = sign ^ num in
    match form with
    | 0 -> Printf.sprintf "rz(%s) q[0];" v
    | 1 -> Printf.sprintf "rx( %s ) q[0];" v
    | _ -> Printf.sprintf "u3(%s,%s,-%s) q[0];" v num num
  in
  [
    Alcotest.test_case "a repeated numeral parses as it does alone" `Quick (fun () ->
        let lines =
          List.map (fun n -> Printf.sprintf "rz(%s) q[0];" n)
            [ "0.1"; "0.1"; "0.10"; "-0.1"; "0.1"; "-0.10"; "1e-3"; "1e-03"; "1e-3"; "0.001";
              "0.55"; "0.5"; "0.55"; "0.555"; "0.5"; "5"; "-5"; "5.0"; "5"; "55"; "5" ]
          @ [ "u3(0.5,0.55,0.5) q[0];"; "u3(0.5,0.5,-0.5) q[0];"; "rz(pi/2) q[0];"; "rz(0.5) q[0];" ]
        in
        Alcotest.(check bool) "every line as alone" true (check_lines lines));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"random numeral sequences parse line by line"
         ~print:(String.concat "\n")
         QCheck2.Gen.(
           list_size (int_range 1 30)
             (map line (triple (oneofl [ ""; "-" ]) (oneofl spellings) (int_bound 2))))
         check_lines);
  ]

(* [Circuit.exact_word] finds the one candidate by rounding a gate's
   angles to the π/4 grid; these cases hold it to the unfiltered scan of
   [Resolve_reference.exact_word] on both built-in depth-1 tables. *)

(* exp(−iδ n·σ) for a unit axis matrix n·σ, at distance sin δ = d from
   the identity. *)
let nudge d axis =
  let delta = Float.asin d in
  Mat2.add (Mat2.scale (Cplx.of_float (Float.cos delta)) Mat2.identity)
    (Mat2.scale { Cplx.re = 0.0; im = -.Float.sin delta } axis)

let u3_of m =
  let t, p, l = Mat2.to_u3_angles m in
  Qgate.U3 (t, p, l)

let words w = Option.map Ctgate.seq_to_string w

let built_in_tables = [ "cliffordt"; "cliffordt-weighted" ]

(* Checks [gates] against the scan on [table]; the matches and misses. *)
let agree_with_scan gate_set table gates =
  let found = ref 0 and far = ref 0 in
  List.iter
    (fun g ->
      let want = words (Resolve_reference.exact_word ~table g) in
      if want = None then incr far else incr found;
      Alcotest.(check (option string)) (gate_set ^ " " ^ Qgate.to_string g) want
        (words (Circuit.exact_word table g)))
    gates;
  (!found, !far)

let grid_tests =
  [
    (* Every entry, in U3 form, and perturbed at distances 0.5e-6 and
       0.99e-6 (inside the tolerance) and 2e-6 (outside) along four
       axes, gets the scan's word. *)
    Alcotest.test_case "exact_word finds every table entry near the grid" `Quick (fun () ->
        let axes =
          [ Mat2.x; Mat2.y; Mat2.z;
            Mat2.add (Mat2.scale (Cplx.of_float 0.6) Mat2.x) (Mat2.scale (Cplx.of_float 0.8) Mat2.z) ]
        in
        List.iter
          (fun gate_set ->
            let table = Ma_table.get_for ~gate_set 1 in
            let gates =
              List.concat_map
                (fun i ->
                  let v = Ma_table.mat table i in
                  u3_of v
                  :: List.concat_map
                       (fun d -> List.map (fun a -> u3_of (Mat2.mul v (nudge d a))) axes)
                       [ 0.5e-6; 0.99e-6; 2e-6 ])
                (List.init (Ma_table.size table) Fun.id)
            in
            let found, far = agree_with_scan gate_set table gates in
            (* The entries and their 0.5e-6 and 0.99e-6 neighbours match;
               the 2e-6 ones do not. *)
            Alcotest.(check int) (gate_set ^ " matches") (9 * Ma_table.size table) found;
            Alcotest.(check int) (gate_set ^ " misses") (4 * Ma_table.size table) far)
          built_in_tables);
    (* Seeded gates around and away from the grid: every entry moved
       along random axes by distances on both sides of 1e-6, each in
       its U3 form, negated θ with φ and λ turned by π, every angle
       shifted by a multiple of 2π, and φ and λ traded against each
       other (for θ near 0 or π the same gate, with φ often half a step
       off the grid); jittered grid points; Haar U3s; and entries with
       one angle NaN, infinite or 1e12·π/4. *)
    Alcotest.test_case "exact_word answers fuzzed gates as the table scan does" `Quick (fun () ->
        let rng = Random.State.make [| 39 |] in
        let pi = Float.pi in
        let axis () =
          let m = Mat2.random_unitary rng in
          (* The traceless part of a Haar SU(2) element, normalized. *)
          let x = m.Mat2.m01.Cplx.im and y = m.Mat2.m01.Cplx.re and z = m.Mat2.m00.Cplx.im in
          let n = Float.sqrt ((x *. x) +. (y *. y) +. (z *. z)) in
          Mat2.add (Mat2.scale (Cplx.of_float (x /. n)) Mat2.x)
            (Mat2.add (Mat2.scale (Cplx.of_float (y /. n)) Mat2.y) (Mat2.scale (Cplx.of_float (z /. n)) Mat2.z))
        in
        let turns () = 2.0 *. pi *. float_of_int (Random.State.int rng 7 - 3) in
        (* A half step or any angle. *)
        let trade () =
          if Random.State.bool rng then float_of_int ((2 * Random.State.int rng 16) - 15) *. pi /. 8.0
          else Random.State.float rng (2.0 *. pi) -. pi
        in
        let forms m =
          let t, p, l = Mat2.to_u3_angles m in
          let s = trade () in
          [ Qgate.U3 (t, p, l); Qgate.U3 (-.t, p +. pi, l +. pi);
            Qgate.U3 (t +. turns (), p +. turns (), l +. turns ());
            Qgate.U3 (t, p +. s, if t < pi /. 2.0 then l -. s else l +. s) ]
        in
        let jitter () =
          let k () = float_of_int (Random.State.int rng 17 - 8) *. pi /. 4.0 in
          let e () =
            if Random.State.bool rng then 0.0
            else (Random.State.float rng 2.0 -. 1.0) *. (10.0 ** -.Random.State.float rng 9.0)
          in
          Qgate.U3 (k () +. e (), k () +. e (), k () +. e ())
        in
        let odd = [ Float.nan; Float.infinity; Float.neg_infinity; 1e12 *. pi /. 4.0 ] in
        List.iter
          (fun gate_set ->
            let table = Ma_table.get_for ~gate_set 1 in
            let entries = List.init (Ma_table.size table) (Ma_table.mat table) in
            let moved =
              List.concat_map
                (fun v ->
                  List.concat_map
                    (fun d -> List.concat_map (fun _ -> forms (Mat2.mul v (nudge d (axis ())))) [ 1; 2; 3 ])
                    [ 0.0; 1e-9; 3e-7; 0.99e-6; 1.01e-6; 2e-6; 1e-5; 1e-3 ])
                entries
            in
            let odd_angles =
              List.concat_map
                (fun v ->
                  let t, p, l = Mat2.to_u3_angles v in
                  List.concat_map
                    (fun x -> [ Qgate.U3 (x, p, l); Qgate.U3 (t, x, l); Qgate.U3 (t, p, x) ])
                    odd)
                entries
            in
            let gates =
              moved @ odd_angles
              @ List.init 1_000 (fun _ -> jitter ())
              @ List.init 500 (fun _ -> u3_of (Mat2.random_unitary rng))
            in
            Alcotest.(check bool) (gate_set ^ ": at least 10,000 gates") true (List.length gates >= 10_000);
            let found, far = agree_with_scan gate_set table gates in
            Alcotest.(check bool) (gate_set ^ ": the sweep holds both kinds") true
              (found > 96 * 12 && far > 96 * 12))
          built_in_tables);
  ]

let suite =
  reader_tests @ reference_tests @ formatting_tests @ window_tests @ engine_tests @ workflow_tests
  @ memo_flush_tests @ resolve_tests @ config_tests @ window_oracle_tests @ numeral_memo_tests
  @ grid_tests
