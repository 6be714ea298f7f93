(* Tests for the Solovay–Kitaev baseline. *)

let rng = Random.State.make [| 606 |]

(* The two scans of a table's planes that [Ma_table.nearest] replaced,
   kept as its oracle: Solovay–Kitaev's base approximation (the first
   entry at the least distance, a NaN distance replacing the best) and
   the U3 scan that [Circuit.exact_word] ran before it looked its one
   candidate up by key (the first entry within 1e-6). *)
let least_scan table m =
  let { Ma_table.re; im } = Ma_table.planes table in
  let best = ref (-1) and best_d = ref infinity in
  for i = 0 to Ma_table.size table - 1 do
    let d = Mat2.distance_at m re im (4 * i) in
    if !best < 0 || not (!best_d <= d) then begin
      best := i;
      best_d := d
    end
  done;
  (!best, !best_d)

let first_within table m =
  let { Ma_table.re; im } = Ma_table.planes table in
  let n = Ma_table.size table in
  let i = ref 0 in
  while !i < n && not (Mat2.distance_at m re im (4 * !i) < 1e-6) do
    incr i
  done;
  if !i < n then Some !i else None

(* [m] as a U3 gate, so it can go through [Circuit.exact_word]. *)
let u3_of m =
  let th, ph, la = Mat2.to_u3_angles m in
  Qgate.U3 (th, ph, la)

let bits = Int64.bits_of_float

let suite =
  [
    Alcotest.test_case "axis-angle round trip" `Quick (fun () ->
        for _ = 1 to 20 do
          let u = Mat2.random_unitary rng in
          let r = Solovay_kitaev.rotation_of_mat2 u in
          let back = Solovay_kitaev.mat2_of_rotation r in
          Alcotest.(check bool) "round trip up to phase" true (Mat2.distance u back < 1e-7)
        done);
    Alcotest.test_case "group commutator reconstructs small rotations" `Quick (fun () ->
        for _ = 1 to 10 do
          (* A rotation within distance ~0.2 of the identity. *)
          let r =
            {
              Solovay_kitaev.angle = 0.1 +. Random.State.float rng 0.2;
              nx = 0.6;
              ny = -0.64;
              nz = 0.48;
            }
          in
          let u = Solovay_kitaev.mat2_of_rotation r in
          let v, w = Solovay_kitaev.group_commutator u in
          let back = Mat2.product [ v; w; Mat2.adjoint v; Mat2.adjoint w ] in
          Alcotest.(check bool) "commutator matches" true (Mat2.distance u back < 1e-6)
        done);
    Alcotest.test_case "sequence matches reported matrix" `Quick (fun () ->
        let target = Mat2.random_unitary rng in
        let r = Solovay_kitaev.synthesize ~depth:2 target in
        Alcotest.(check bool) "word product" true
          (Mat2.distance (Ctgate.seq_to_mat2 r.Solovay_kitaev.seq) r.Solovay_kitaev.mat < 1e-6));
    Alcotest.test_case "error decreases with depth" `Quick (fun () ->
        let target = Mat2.random_unitary rng in
        let d0 = (Solovay_kitaev.synthesize ~depth:0 target).Solovay_kitaev.distance in
        let d2 = (Solovay_kitaev.synthesize ~depth:2 target).Solovay_kitaev.distance in
        let d3 = (Solovay_kitaev.synthesize ~depth:3 target).Solovay_kitaev.distance in
        Alcotest.(check bool)
          (Printf.sprintf "%.3f > %.3f > %.3f" d0 d2 d3)
          true
          (d0 > d2 && d2 > d3));
    Alcotest.test_case "nearest equals the two scans it replaced" `Quick (fun () ->
        let check_nearest label table m =
          let i, d = Ma_table.nearest table m and i', d' = least_scan table m in
          Alcotest.(check (pair int int64)) (label ^ ": least scan") (i', bits d') (i, bits d)
        in
        (* Solovay–Kitaev's depth-4 base net: the index and distance
           bits, through nearest and through a depth-0 synthesis. *)
        let base = Ma_table.get 4 and haar = Random.State.make [| 4242 |] in
        for k = 1 to 1000 do
          let m = Mat2.random_unitary haar in
          let label = Printf.sprintf "haar %d" k in
          check_nearest label base m;
          let i, d = least_scan base m in
          let r = Solovay_kitaev.synthesize ~base_t:4 ~depth:0 m in
          Alcotest.(check (pair string int64)) (label ^ ": sk")
            (Ctgate.seq_to_string (Ma_table.word base i), bits d)
            (Ctgate.seq_to_string r.Solovay_kitaev.seq, bits r.Solovay_kitaev.distance)
        done;
        let nan = Mat2.of_floats Float.nan 0.0 0.0 1.0 in
        check_nearest "nan" base nan;
        check_nearest "nan, depth 1" (Ma_table.get 1) nan;
        (* The depth-1 table: every entry moved 0.5e-6 and 0.99e-6 along
           each axis, and far gates.  nearest within 1e-6 is the first
           entry within it, and exact_word answers with its word. *)
        let table = Ma_table.get 1 in
        let check_within label m =
          check_nearest label table m;
          let i, d = Ma_table.nearest table m in
          let want = first_within table (Qgate.to_mat2 (u3_of m)) in
          Alcotest.(check (option int)) (label ^ ": first within 1e-6") (first_within table m)
            (if d < 1e-6 then Some i else None);
          Alcotest.(check (option string)) (label ^ ": exact_word")
            (Option.map (fun i -> Ctgate.seq_to_string (Ma_table.word table i)) want)
            (Option.map Ctgate.seq_to_string (Circuit.exact_word table (u3_of m)))
        in
        for e = 0 to Ma_table.size table - 1 do
          List.iter
            (fun delta ->
              let a = 2.0 *. Float.asin delta in
              List.iter
                (fun (axis, r) ->
                  let m = Mat2.mul (Ma_table.mat table e) r in
                  let label = Printf.sprintf "entry %d, %s by %g" e axis delta in
                  check_within label m;
                  Alcotest.(check bool) (label ^ ": found") true
                    (first_within table m = Some e))
                [ ("z", Mat2.rz a); ("x", Mat2.rx a); ("y", Mat2.ry a) ])
            [ 0.5e-6; 0.99e-6 ]
        done;
        let far = Random.State.make [| 77 |] in
        for k = 1 to 200 do
          let m = Mat2.random_unitary far in
          check_within (Printf.sprintf "far %d" k) m
        done;
        List.iter
          (fun (label, m) ->
            check_within label m;
            Alcotest.(check (option int)) (label ^ ": none within") None (first_within table m))
          [ ("u3(0.3, 0.2, 0.1)", Mat2.u3 0.3 0.2 0.1); ("rz(0.3)", Mat2.rz 0.3);
            ("rx(pi/8 + 1e-3)", Mat2.rx ((Float.pi /. 8.0) +. 1e-3)) ]);
    Alcotest.test_case "adjoint word inverts" `Quick (fun () ->
        let seq = Ctgate.[ H; T; S; Tdg; X; Sdg ] in
        let m = Ctgate.seq_to_mat2 seq in
        let minv = Ctgate.seq_to_mat2 (Solovay_kitaev.adjoint_word seq) in
        Alcotest.(check bool) "U·U† = I" true (Mat2.distance (Mat2.mul m minv) Mat2.identity < 1e-6));
  ]
