(* Tests for exact Clifford+T arithmetic, the Clifford group, and the
   Matsumoto–Amano enumeration table (TRASYN step 0). *)

let check_close msg a b = Alcotest.(check bool) msg true (Mat2.is_close ~tol:1e-9 a b)

let exact_vs_float_tests =
  [
    Alcotest.test_case "exact gates match float gates" `Quick (fun () ->
        List.iter
          (fun g ->
            check_close (Ctgate.to_string g) (Exact_u.to_mat2 (Exact_u.of_gate g)) (Ctgate.to_mat2 g))
          Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]);
    Alcotest.test_case "exact product matches float product" `Quick (fun () ->
        let seq = Ctgate.[ H; T; S; H; T; T; H; Sdg; T; X; H; T; Z ] in
        check_close "product" (Exact_u.to_mat2 (Exact_u.of_seq seq)) (Ctgate.seq_to_mat2 seq));
    Alcotest.test_case "adjoint is inverse" `Quick (fun () ->
        let u = Exact_u.of_seq Ctgate.[ H; T; S; H; T ] in
        Alcotest.(check bool) "U U† = I" true
          (Exact_u.equal (Exact_u.mul u (Exact_u.adjoint u)) Exact_u.identity));
    Alcotest.test_case "canonicalize is phase invariant" `Quick (fun () ->
        let u = Exact_u.of_seq Ctgate.[ H; T; H; T ] in
        for j = 0 to 7 do
          let v = Exact_u.mul_phase u j in
          Alcotest.(check bool) (Printf.sprintf "phase %d" j) true (Exact_u.equal_up_to_phase u v)
        done);
    Alcotest.test_case "distinct ops not identified" `Quick (fun () ->
        let u = Exact_u.of_seq Ctgate.[ H; T ] in
        let v = Exact_u.of_seq Ctgate.[ T; H ] in
        Alcotest.(check bool) "HT <> TH" false (Exact_u.equal_up_to_phase u v));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"random words: exact matches float"
         QCheck2.Gen.(list_size (int_range 0 20) (oneofl Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]))
         (fun seq ->
           Mat2.is_close ~tol:1e-8 (Exact_u.to_mat2 (Exact_u.of_seq seq)) (Ctgate.seq_to_mat2 seq)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"exact unitaries are unitary"
         QCheck2.Gen.(list_size (int_range 0 20) (oneofl Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]))
         (fun seq -> Mat2.is_unitary ~tol:1e-8 (Exact_u.to_mat2 (Exact_u.of_seq seq))));
  ]

let clifford_tests =
  [
    Alcotest.test_case "exactly 24 Cliffords" `Quick (fun () ->
        Alcotest.(check int) "count" 24 Clifford.count);
    Alcotest.test_case "clifford words evaluate to their element" `Quick (fun () ->
        Array.iter
          (fun (e : Clifford.element) ->
            Alcotest.(check bool) "word matches" true
              (Exact_u.equal_up_to_phase (Exact_u.of_seq e.Clifford.word) e.Clifford.u))
          Clifford.elements);
    Alcotest.test_case "cliffords are closed under multiplication" `Quick (fun () ->
        Array.iter
          (fun (a : Clifford.element) ->
            Array.iter
              (fun (b : Clifford.element) ->
                let p = Exact_u.mul a.Clifford.u b.Clifford.u in
                Alcotest.(check bool) "closure" true (Clifford.is_clifford_up_to_phase p))
              Clifford.elements)
          Clifford.elements);
    Alcotest.test_case "T is not a Clifford" `Quick (fun () ->
        Alcotest.(check bool) "T" false (Clifford.is_clifford_up_to_phase Exact_u.gate_t));
  ]

let ma_tests =
  [
    Alcotest.test_case "table count matches 24(3·2^m − 2)" `Quick (fun () ->
        List.iter
          (fun m ->
            let table = Ma_table.get m in
            Alcotest.(check int)
              (Printf.sprintf "m=%d" m)
              (Ma_table.theoretical_count m) (Ma_table.size table))
          [ 0; 1; 2; 3; 4; 5 ]);
    Alcotest.test_case "MA normal forms are pairwise distinct" `Quick (fun () ->
        let table = Ma_table.get 4 in
        let seen = Exact_u.Table.create 1024 in
        for i = 0 to Ma_table.offset table 5 - 1 do
          let key = Exact_u.key (Exact_u.canonicalize (Ma_table.unitary table i)) in
          Alcotest.(check bool) "fresh" false (Exact_u.Table.mem seen key);
          Exact_u.Table.add seen key ()
        done);
    Alcotest.test_case "entry sequences have the declared T count" `Quick (fun () ->
        let table = Ma_table.get 4 in
        for i = 0 to Ma_table.size table - 1 do
          let seq = Ma_table.word table i in
          Alcotest.(check int) "tcount" (Ma_table.tcount table i) (Ctgate.t_count seq);
          Alcotest.(check bool) "matrix matches" true
            (Exact_u.equal_up_to_phase (Exact_u.of_seq seq) (Ma_table.unitary table i))
        done);
    Alcotest.test_case "lookup finds T-optimal equivalents" `Quick (fun () ->
        let table = Ma_table.get 3 in
        (* T·T = S: a 2-T word whose operator is Clifford. *)
        let probe = Ma_table.probe () in
        let tt = Exact_u.of_seq Ctgate.[ T; T ] in
        (match Ma_table.find table probe tt with
        | -1 -> Alcotest.fail "T·T not found"
        | i -> Alcotest.(check int) "T·T needs 0 T" 0 (Ma_table.tcount table i));
        (* H T H T H T H has some T-count at most 3. *)
        let w = Exact_u.of_seq Ctgate.[ H; T; H; T; H; T; H ] in
        match Ma_table.find table probe w with
        | -1 -> Alcotest.fail "not found"
        | i -> Alcotest.(check bool) "<= 3 T" true (Ma_table.tcount table i <= 3));
    Alcotest.test_case "offsets partition by tcount" `Quick (fun () ->
        let table = Ma_table.get 5 in
        for k = 0 to 5 do
          let lo = Ma_table.offset table k and hi = Ma_table.offset table (k + 1) in
          for i = lo to hi - 1 do
            Alcotest.(check int) "k" k (Ma_table.tcount table i)
          done;
          let expected = if k = 0 then 24 else 24 * 3 * (1 lsl (k - 1)) in
          Alcotest.(check int) (Printf.sprintf "level %d size" k) expected (hi - lo)
        done);
    Alcotest.test_case "build equals the list-append enumeration at depths 0-10" `Quick
      (fun () ->
        for d = 0 to 10 do
          Test_gateset.check_tables_identical (Printf.sprintf "depth %d" d) (Ma_reference.build d)
            (Ma_table.build d)
        done);
    Alcotest.test_case "table entries within distance to nearby targets" `Quick (fun () ->
        (* The m=6 table must contain something within ~0.25 of any target. *)
        let table = Ma_table.get 6 in
        let rng = Random.State.make [| 42 |] in
        for _ = 1 to 10 do
          let target = Mat2.random_unitary rng in
          let best =
            Array.fold_left
              (fun acc i -> Float.min acc (Mat2.distance target (Ma_table.mat table i)))
              infinity
              (Array.init (Ma_table.size table) Fun.id)
          in
          Alcotest.(check bool) "coverage" true (best < 0.25)
        done);
  ]

(* The native gate product and the one-phase canonical key, each against
   code written independently of it. *)

let all_gates = Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]
let gen_word max_len = QCheck2.Gen.(list_size (int_range 0 max_len) (oneofl all_gates))

(* ω^j·U through the ring's own [mul_omega_pow]. *)
let phase_multiple (u : Exact_u.t) j =
  let r x = Zomega.Native.mul_omega_pow x j in
  { u with Exact_u.a = r u.Exact_u.a; b = r u.Exact_u.b; c = r u.Exact_u.c; d = r u.Exact_u.d }

(* The canonical key spelled out: the lexicographically smallest key
   among the eight phase multiples. *)
let phase_min_key u =
  List.fold_left
    (fun best j ->
      let k = Exact_u.key (phase_multiple u j) in
      if compare k best < 0 then k else best)
    (Exact_u.key u) [ 1; 2; 3; 4; 5; 6; 7 ]

(* A word's product as a fold of general matrix products. *)
let product_by_mul seq =
  List.fold_left (fun acc g -> Exact_u.mul acc (Exact_u.of_gate g)) Exact_u.identity seq

(* Arbitrary records, not only unitaries: a zero in every entry position
   and an unreduced k, so each branch of the leading-entry rule and of
   the reduction is reached. *)
let gen_record =
  let open QCheck2.Gen in
  let coeff = int_range (-3) 3 in
  let entry =
    frequency
      [
        (1, pure Zomega.Native.zero);
        (3, map (fun (a, b, c, d) -> Zomega.Native.of_ints a b c d) (quad coeff coeff coeff coeff));
      ]
  in
  map
    (fun ((a, b), (c, d), k) -> { Exact_u.a; b; c; d; k })
    (triple (pair entry entry) (pair entry entry) (int_range 0 3))

let gen_operator =
  QCheck2.Gen.(
    frequency [ (3, map Exact_u.of_seq (gen_word 40)); (1, gen_record) ])

let native_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"gate product equals the general product"
         QCheck2.Gen.(pair gen_operator (oneofl all_gates))
         (fun (u, g) ->
           Exact_u.key (Exact_u.mul_gate u g) = Exact_u.key (Exact_u.mul u (Exact_u.of_gate g))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"word product equals a fold of general products"
         ~print:Ctgate.seq_to_string
         (gen_word 48)
         (fun seq -> Exact_u.key (Exact_u.of_seq seq) = Exact_u.key (product_by_mul seq)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"canonical key is the 8-phase minimum" gen_operator
         (fun u ->
           let k = Exact_u.canonical_key u in
           k = phase_min_key u && k = Exact_u.key (Exact_u.canonicalize u)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"canonical key ignores global phase"
         QCheck2.Gen.(pair gen_operator (int_range 0 7))
         (fun (u, j) -> Exact_u.canonical_key (phase_multiple u j) = Exact_u.canonical_key u));
  ]

let suite = exact_vs_float_tests @ clifford_tests @ ma_tests @ native_tests
