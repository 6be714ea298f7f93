(* Tests for the circuit IR, metrics, transpiler passes and the Pauli
   evolution compiler. *)

let rng = Random.State.make [| 31337 |]

let circuit_tests =
  [
    Alcotest.test_case "instr validates arity and qubits" `Quick (fun () ->
        Alcotest.check_raises "arity" (Invalid_argument "Circuit.instr: cx expects 2 qubits, got 1")
          (fun () -> ignore (Circuit.instr Qgate.CX [| 0 |]));
        Alcotest.check_raises "duplicate" (Invalid_argument "Circuit.instr: duplicate qubit")
          (fun () -> ignore (Circuit.instr Qgate.CX [| 1; 1 |])));
    Alcotest.test_case "metrics on a known circuit" `Quick (fun () ->
        let c =
          Circuit.of_list 2
            [
              (Qgate.H, [ 0 ]); (Qgate.T, [ 0 ]); (Qgate.CX, [ 0; 1 ]); (Qgate.T, [ 1 ]);
              (Qgate.Tdg, [ 0 ]); (Qgate.Rz 0.3, [ 1 ]); (Qgate.X, [ 0 ]);
            ]
        in
        Alcotest.(check int) "T count" 3 (Circuit.t_count c);
        Alcotest.(check int) "Clifford count (H+CX)" 2 (Circuit.clifford_count c);
        Alcotest.(check int) "rotations" 1 (Circuit.rotation_count c);
        Alcotest.(check int) "T depth" 2 (Circuit.t_depth c));
    Alcotest.test_case "t_depth is parallel-aware" `Quick (fun () ->
        let c = Circuit.of_list 2 [ (Qgate.T, [ 0 ]); (Qgate.T, [ 1 ]) ] in
        Alcotest.(check int) "parallel Ts" 1 (Circuit.t_depth c));
    Alcotest.test_case "nontrivial rotation classification" `Quick (fun () ->
        Alcotest.(check bool) "Rz(pi/2) trivial" false
          (Circuit.nontrivial_rotation (Qgate.Rz (Float.pi /. 2.0)));
        Alcotest.(check bool) "Rz(0.3) nontrivial" true (Circuit.nontrivial_rotation (Qgate.Rz 0.3));
        Alcotest.(check bool) "U3 = exact T gate is trivial" false
          (Circuit.nontrivial_rotation
             (let t, p, l = Mat2.to_u3_angles Mat2.t in
              Qgate.U3 (t, p, l)));
        Alcotest.(check bool) "random U3 nontrivial" true
          (Circuit.nontrivial_rotation (Qgate.U3 (0.3, 0.7, -1.1))));
    Alcotest.test_case "qasm rendering" `Quick (fun () ->
        let c = Circuit.of_list 2 [ (Qgate.H, [ 0 ]); (Qgate.CX, [ 0; 1 ]) ] in
        let q = Qasm.to_string c in
        Alcotest.(check bool) "has header" true (String.length q > 0 && String.sub q 0 8 = "OPENQASM");
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "has cx" true (contains q "cx q[0],q[1];"));
  ]

(* Circuits are equivalent if their full unitaries agree up to phase. *)
let circuits_equal a b = Cmatrix.distance (Unitary.of_circuit a) (Unitary.of_circuit b) < 1e-7

let random_circuit ?(gates = 25) n =
  let instrs = ref [] in
  for _ = 1 to gates do
    let choice = Random.State.int rng 8 in
    let q = Random.State.int rng n in
    let q2 = (q + 1 + Random.State.int rng (n - 1)) mod n in
    let angle = Random.State.float rng 6.0 -. 3.0 in
    let i =
      match choice with
      | 0 -> Circuit.instr Qgate.H [| q |]
      | 1 -> Circuit.instr (Qgate.Rz angle) [| q |]
      | 2 -> Circuit.instr (Qgate.Rx angle) [| q |]
      | 3 -> Circuit.instr (Qgate.Ry angle) [| q |]
      | 4 -> Circuit.instr Qgate.T [| q |]
      | 5 -> Circuit.instr Qgate.CX [| q; q2 |]
      | 6 -> Circuit.instr Qgate.CZ [| q; q2 |]
      | _ -> Circuit.instr (Qgate.U3 (angle, angle /. 2.0, -.angle)) [| q |]
    in
    instrs := i :: !instrs
  done;
  Circuit.make n (List.rev !instrs)

(* Random circuits for the transpiler oracles: 1–5 qubits, up to 60
   gates over CX, CZ, H, X, Z, S, T, Rz, Rx, Ry and U3.  Few qubits and
   two-qubit gates at 2 in 5 make diagonal gates meet CX controls (and
   CZ) and Rx meet CX targets; angles at multiples of π/4 make merged
   runs that vanish or turn trivial. *)
let gen_transpile_circuit =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let angle =
    oneof [ float_range (-3.2) 3.2; map (fun k -> float_of_int k *. Float.pi /. 4.0) (int_range (-8) 8) ]
  in
  let one_qubit =
    let* q = int_bound (n - 1) in
    let+ g =
      oneof
        [
          oneofl Qgate.[ H; X; Z; S; T ];
          map (fun a -> Qgate.Rz a) angle;
          map (fun a -> Qgate.Rx a) angle;
          map (fun a -> Qgate.Ry a) angle;
          map3 (fun t p l -> Qgate.U3 (t, p, l)) angle angle angle;
        ]
    in
    Circuit.instr g [| q |]
  in
  let two_qubit =
    let* q = int_bound (n - 1) and* d = int_bound (max 0 (n - 2)) and* g = oneofl Qgate.[ CX; CX; CZ ] in
    pure (Circuit.instr g [| q; (q + 1 + d) mod n |])
  in
  let instr = if n = 1 then one_qubit else frequency [ (3, one_qubit); (2, two_qubit) ] in
  let+ gates = list_size (int_bound 60) instr in
  Circuit.make n gates

(* The angles of a gate, as bits: instruction lists are equal when
   their gates and qubits are and every angle has the same bits. *)
let angle_bits (i : Circuit.instr) =
  List.map Int64.bits_of_float
    (match i.Circuit.gate with
    | Qgate.Rz a | Qgate.Rx a | Qgate.Ry a -> [ a ]
    | Qgate.U3 (t, p, l) -> [ t; p; l ]
    | _ -> [])

let same_instrs (a : Circuit.t) (b : Circuit.t) =
  List.length a.Circuit.instrs = List.length b.Circuit.instrs
  && List.for_all2 (fun x y -> x = y && angle_bits x = angle_bits y) a.Circuit.instrs b.Circuit.instrs

(* Every check of the transpiler against [Transpile_reference] on one
   circuit: the first that fails, if any. *)
let reference_mismatch (c : Circuit.t) =
  let lowered = Basis.lower c and rz = Transpile_reference.to_rz_ir c in
  let name = Settings.setting_to_string in
  let expect what ok () = if ok () then None else Some what in
  let pulled c () =
    List.for_all2 ( == ) (Commute.pull_rotations_left c).Circuit.instrs
      (Transpile_reference.pull_rotations_left c).Circuit.instrs
  in
  let apply s () = same_instrs (Settings.apply s c) (Transpile_reference.apply s c) in
  let best ir () =
    let s, out = Settings.best_for ir c and s', out' = Transpile_reference.best_for ir c in
    if s <> s' then Some (Printf.sprintf "best_for %s: %s, reference %s" (Settings.ir_to_string ir) (name s) (name s'))
    else if not (same_instrs out out') then Some ("best_for instructions at " ^ name s)
    else None
  in
  let winner () =
    let w = Settings.winner c and w' = Transpile_reference.winner c in
    if w <> w' then Some (Printf.sprintf "winner %s, reference %s" (name w) (name w')) else None
  in
  List.find_map
    (fun check -> check ())
    ([
       expect "pull_rotations_left" (pulled c);
       expect "pull_rotations_left after lower" (pulled lowered);
       expect "to_rz_ir" (fun () -> same_instrs (Basis.to_rz_ir c) rz);
       expect "cancel_pairs" (fun () -> same_instrs (Commute.cancel_pairs c) (Transpile_reference.cancel_pairs c));
       expect "merge_axis_rotations" (fun () ->
           same_instrs (Commute.merge_axis_rotations rz) (Transpile_reference.merge_axis_rotations rz));
     ]
    @ List.map (fun s -> expect ("apply " ^ name s) (apply s)) Settings.all_settings
    @ [ best Settings.Rz_ir; best Settings.U3_ir; winner ])

let transpile_tests =
  [
    Alcotest.test_case "lower preserves semantics (CZ, Swap, Ccx)" `Quick (fun () ->
        let c =
          Circuit.of_list 3
            [
              (Qgate.H, [ 0 ]); (Qgate.CZ, [ 0; 1 ]); (Qgate.Swap, [ 1; 2 ]); (Qgate.Ccx, [ 0; 1; 2 ]);
              (Qgate.T, [ 2 ]);
            ]
        in
        Alcotest.(check bool) "equivalent" true (circuits_equal c (Basis.lower c)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"merge_1q preserves semantics" QCheck2.Gen.unit (fun () ->
           let c = random_circuit 3 in
           circuits_equal c (Basis.merge_1q c)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"to_rz_ir preserves semantics" QCheck2.Gen.unit (fun () ->
           let c = random_circuit 3 in
           circuits_equal c (Basis.to_rz_ir (Basis.merge_1q (Basis.lower c)))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"commutation pass preserves semantics" QCheck2.Gen.unit
         (fun () ->
           let c = random_circuit 3 in
           circuits_equal c (Commute.pull_rotations_left (Basis.lower c))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:16 ~name:"all 16 settings preserve semantics" QCheck2.Gen.unit
         (fun () ->
           let c = random_circuit ~gates:15 3 in
           List.for_all (fun s -> circuits_equal c (Settings.apply s c)) Settings.all_settings));
    Alcotest.test_case "U3 IR merges adjacent rotations" `Quick (fun () ->
        let c =
          Circuit.of_list 1 [ (Qgate.Rz 0.3, [ 0 ]); (Qgate.Rx 0.5, [ 0 ]); (Qgate.Rz (-0.2), [ 0 ]) ]
        in
        let merged = Basis.merge_1q c in
        Alcotest.(check int) "one U3" 1 (Circuit.length merged));
    Alcotest.test_case "commutation moves Rz through CX control" `Quick (fun () ->
        let c =
          Circuit.of_list 2
            [ (Qgate.Rz 0.4, [ 0 ]); (Qgate.CX, [ 0; 1 ]); (Qgate.Rz 0.3, [ 0 ]) ]
        in
        let pulled = Commute.pull_rotations_left c in
        let merged = Commute.merge_axis_rotations pulled in
        Alcotest.(check int) "rotations merged" 1 (Circuit.rotation_count merged));
    Alcotest.test_case "best U3 setting never needs more rotations than Rz" `Quick (fun () ->
        (* On QAOA, the U3 IR should find strictly fewer rotations. *)
        let c = Generators.qaoa ~seed:3 ~n:8 ~depth:2 in
        let _, u3 = Settings.best_for Settings.U3_ir c in
        let _, rz = Settings.best_for Settings.Rz_ir c in
        let ru3 = Circuit.nontrivial_rotation_count u3 in
        let rrz = Circuit.nontrivial_rotation_count rz in
        Alcotest.(check bool) (Printf.sprintf "%d < %d" ru3 rrz) true (ru3 < rrz));
  ]

let pauli_tests =
  [
    Alcotest.test_case "single Z term is Rz" `Quick (fun () ->
        let term = Pauli_evo.term_of_string "IZ" 0.7 in
        let c = Pauli_evo.compile ~n:2 [ term ] in
        Alcotest.(check int) "one rotation" 1 (Circuit.rotation_count c));
    Alcotest.test_case "evolution matches exact exponential (ZZ)" `Quick (fun () ->
        let theta = 0.9 in
        let term = Pauli_evo.term_of_string "ZZ" theta in
        let c = Pauli_evo.compile ~n:2 [ term ] in
        let u = Unitary.of_circuit c in
        (* exp(-i θ/2 Z⊗Z) is diagonal with phases e^(∓iθ/2). *)
        let expected =
          Cmatrix.init 4 4 (fun i j ->
              if i <> j then Cplx.zero
              else begin
                let parity = (i land 1) lxor ((i lsr 1) land 1) in
                Cplx.cis ((if parity = 0 then -1.0 else 1.0) *. theta /. 2.0)
              end)
        in
        Alcotest.(check bool) "matches" true (Cmatrix.distance u expected < 1e-6));
    Alcotest.test_case "evolution matches exact exponential (XX)" `Quick (fun () ->
        let theta = 0.7 in
        let term = Pauli_evo.term_of_string "XX" theta in
        let c = Pauli_evo.compile ~n:2 [ term ] in
        let u = Unitary.of_circuit c in
        (* Conjugate the ZZ evolution by H⊗H. *)
        let h2 = Cmatrix.kron (Cmatrix.of_mat2 Mat2.h) (Cmatrix.of_mat2 Mat2.h) in
        let zz = Pauli_evo.compile ~n:2 [ Pauli_evo.term_of_string "ZZ" theta ] in
        let expected = Cmatrix.mul h2 (Cmatrix.mul (Unitary.of_circuit zz) h2) in
        Alcotest.(check bool) "matches" true (Cmatrix.distance u expected < 1e-6));
    Alcotest.test_case "Y terms round-trip through basis changes" `Quick (fun () ->
        let theta = 1.1 in
        let c = Pauli_evo.compile ~n:1 [ Pauli_evo.term_of_string "Y" theta ] in
        let u = Unitary.of_circuit c in
        let expected = Cmatrix.of_mat2 (Mat2.ry theta) in
        Alcotest.(check bool) "Ry" true (Cmatrix.distance u expected < 1e-6));
    Alcotest.test_case "reordering does not change the rotation count" `Quick (fun () ->
        let terms =
          [
            Pauli_evo.term_of_string "ZZI" 0.4;
            Pauli_evo.term_of_string "IZZ" 0.3;
            Pauli_evo.term_of_string "XXI" 0.2;
          ]
        in
        let c1 = Pauli_evo.compile ~reorder:false ~n:3 terms in
        let c2 = Pauli_evo.compile ~reorder:true ~n:3 terms in
        Alcotest.(check int) "rotations" (Circuit.rotation_count c1) (Circuit.rotation_count c2);
        Alcotest.(check bool) "reorder not larger" true (Circuit.length c2 <= Circuit.length c1));
  ]

(* The transpiler against [Transpile_reference], the passes as they
   were before the candidates shared their pass prefixes. *)
let reference_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"transpiler equals its reference on random circuits"
         ~print:Qasm.to_string gen_transpile_circuit (fun c ->
           match reference_mismatch c with
           | None -> true
           | Some what -> QCheck2.Test.fail_report what));
    Alcotest.test_case "transpiler equals its reference on every suite circuit" `Quick (fun () ->
        List.iter
          (fun (b : Suite.benchmark) ->
            match reference_mismatch b.Suite.circuit with
            | None -> ()
            | Some what -> Alcotest.failf "%s: %s" b.Suite.name what)
          (Suite.all ()));
  ]

let suite = circuit_tests @ transpile_tests @ pauli_tests @ reference_tests
