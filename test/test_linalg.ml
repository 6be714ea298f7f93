(* Tests for complex linear algebra: Mat2, Cmatrix, QR/LQ and SVD. *)

let rng = Random.State.make [| 2024 |]

let random_cmatrix m n =
  Cmatrix.init m n (fun _ _ ->
      { Cplx.re = Random.State.float rng 2.0 -. 1.0; im = Random.State.float rng 2.0 -. 1.0 })

(* The product form [Mat2.trace_value] replaced: all of U†V, then its
   trace. *)
let trace_value_reference u v = Cplx.norm (Mat2.trace (Mat2.mul (Mat2.adjoint u) v)) /. 2.0

(* Haar unitaries by seed, and arbitrary matrices whose entries are
   often exactly 0.0 or -0.0. *)
let gen_mat2 =
  let open QCheck2.Gen in
  let entry = frequency [ (2, return 0.0); (2, return (-0.0)); (1, return 1.0); (5, float_range (-2.0) 2.0) ] in
  let cplx = map2 (fun re im -> { Cplx.re; im }) entry entry in
  frequency
    [
      (1, map (fun seed -> Mat2.random_unitary (Random.State.make [| seed |])) int);
      (1, map (fun (a, b, c, d) -> Mat2.make a b c d) (quad cplx cplx cplx cplx));
    ]

let print_mat2 (m : Mat2.t) =
  String.concat " " (List.map (fun (z : Cplx.t) -> Printf.sprintf "(%h,%h)" z.re z.im) [ m.m00; m.m01; m.m10; m.m11 ])

let mat2_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:2000 ~name:"trace_value is bit-identical to the product form"
         ~print:(fun (u, v) -> print_mat2 u ^ " / " ^ print_mat2 v)
         QCheck2.Gen.(pair gen_mat2 gen_mat2)
         (fun (u, v) ->
           Int64.bits_of_float (Mat2.trace_value u v) = Int64.bits_of_float (trace_value_reference u v)));
    Alcotest.test_case "standard gates are unitary" `Quick (fun () ->
        List.iter
          (fun (name, m) -> Alcotest.(check bool) name true (Mat2.is_unitary m))
          [
            ("h", Mat2.h); ("x", Mat2.x); ("y", Mat2.y); ("z", Mat2.z); ("s", Mat2.s);
            ("t", Mat2.t); ("rz", Mat2.rz 0.7); ("rx", Mat2.rx (-1.2)); ("ry", Mat2.ry 2.9);
            ("u3", Mat2.u3 0.3 1.1 (-0.8));
          ]);
    Alcotest.test_case "gate identities" `Quick (fun () ->
        let close = Mat2.is_close ~tol:1e-12 in
        Alcotest.(check bool) "H^2 = I" true (close (Mat2.mul Mat2.h Mat2.h) Mat2.identity);
        Alcotest.(check bool) "S = T^2" true (close Mat2.s (Mat2.mul Mat2.t Mat2.t));
        Alcotest.(check bool) "HXH = Z" true
          (close (Mat2.mul Mat2.h (Mat2.mul Mat2.x Mat2.h)) Mat2.z);
        Alcotest.(check bool) "S X S† = Y" true
          (close (Mat2.mul Mat2.s (Mat2.mul Mat2.x Mat2.sdg)) Mat2.y);
        Alcotest.(check bool) "H Rz(a) H = Rx(a)" true
          (Mat2.distance (Mat2.mul Mat2.h (Mat2.mul (Mat2.rz 0.9) Mat2.h)) (Mat2.rx 0.9) < 1e-7));
    Alcotest.test_case "distance: identical zero, orthogonal one" `Quick (fun () ->
        (* The trace-distance formula has a ~sqrt(ulp) floor near zero. *)
        Alcotest.(check bool) "same" true (Mat2.distance Mat2.h Mat2.h < 1e-7);
        Alcotest.(check bool) "phase invariant" true
          (Mat2.distance Mat2.h (Mat2.scale (Cplx.cis 0.3) Mat2.h) < 1e-7);
        Alcotest.(check (float 1e-9)) "X vs Z" 1.0 (Mat2.distance Mat2.x Mat2.z));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"u3 angles round-trip"
         QCheck2.Gen.(triple (float_bound_exclusive 3.14) (float_range (-3.0) 3.0) (float_range (-3.0) 3.0))
         (fun (t, p, l) ->
           let m = Mat2.u3 t p l in
           let t', p', l' = Mat2.to_u3_angles m in
           Mat2.distance m (Mat2.u3 t' p' l') < 1e-7));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"random_unitary is unitary (Haar quaternion)"
         QCheck2.Gen.unit
         (fun () -> Mat2.is_unitary ~tol:1e-10 (Mat2.random_unitary rng)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"distance is symmetric and bounded" QCheck2.Gen.unit
         (fun () ->
           let a = Mat2.random_unitary rng and b = Mat2.random_unitary rng in
           let d1 = Mat2.distance a b and d2 = Mat2.distance b a in
           Float.abs (d1 -. d2) < 1e-12 && d1 >= 0.0 && d1 <= 1.0 +. 1e-12));
  ]

let cmatrix_tests =
  [
    Alcotest.test_case "identity multiplication" `Quick (fun () ->
        let a = random_cmatrix 5 5 in
        Alcotest.(check bool) "I*A = A" true (Cmatrix.is_close (Cmatrix.mul (Cmatrix.identity 5) a) a));
    Alcotest.test_case "kron dimensions and values" `Quick (fun () ->
        let a = random_cmatrix 2 2 and b = random_cmatrix 3 3 in
        let k = Cmatrix.kron a b in
        Alcotest.(check (pair int int)) "dims" (6, 6) (Cmatrix.dims k);
        let expected = Cplx.mul (Cmatrix.get a 1 0) (Cmatrix.get b 2 1) in
        Alcotest.(check bool) "entry" true (Cplx.is_close expected (Cmatrix.get k 5 1)));
    Alcotest.test_case "mat2 round trip" `Quick (fun () ->
        let m = Mat2.random_unitary rng in
        Alcotest.(check bool) "round trip" true
          (Mat2.is_close m (Cmatrix.to_mat2 (Cmatrix.of_mat2 m))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100 ~name:"adjoint is an involution" QCheck2.Gen.unit (fun () ->
           let a = random_cmatrix 4 3 in
           Cmatrix.is_close a (Cmatrix.adjoint (Cmatrix.adjoint a))));
  ]

let suite = mat2_tests @ cmatrix_tests
