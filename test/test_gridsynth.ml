(* Tests for the Ross–Selinger stack: rings, grid problems, Diophantine
   solving, exact synthesis, and the end-to-end Rz/U3 approximation. *)

module R2 = Zroot2.Big
module R2n = Zroot2.Native
module O = Zomega.Big
module On = Zomega.Native
module B = Bigint

let ring_tests =
  [
    Alcotest.test_case "Z[√2] arithmetic identities" `Quick (fun () ->
        let a = R2n.make 3 (-2) and b = R2n.make (-1) 4 in
        Alcotest.(check bool) "commutative" true (R2n.equal (R2n.mul a b) (R2n.mul b a));
        Alcotest.(check bool) "conj2 multiplicative" true
          (R2n.equal (R2n.conj2 (R2n.mul a b)) (R2n.mul (R2n.conj2 a) (R2n.conj2 b)));
        Alcotest.(check int) "norm multiplicative" (R2n.norm a * R2n.norm b)
          (R2n.norm (R2n.mul a b)));
    Alcotest.test_case "lambda is a unit with inverse" `Quick (fun () ->
        Alcotest.(check bool) "λ·λ⁻¹ = 1" true
          (R2n.equal (R2n.mul R2n.lambda R2n.lambda_inv) R2n.one);
        Alcotest.(check bool) "unit" true (R2n.is_unit R2n.lambda));
    Alcotest.test_case "sign_val agrees with floats" `Quick (fun () ->
        List.iter
          (fun (a, b) ->
            let x = R2n.make a b in
            let expected = compare (R2n.to_float x) 0.0 in
            Alcotest.(check int) (Printf.sprintf "%d+%d√2" a b) expected (R2n.sign_val x))
          [ (3, -2); (-3, 2); (0, 0); (7, -5); (-7, 5); (1, 1); (-1, -1); (141, -100); (-141, 100) ]);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"Z[√2] Euclidean division"
         QCheck2.Gen.(quad (int_range (-500) 500) (int_range (-500) 500) (int_range (-500) 500) (int_range (-500) 500))
         (fun (a, b, c, d) ->
           let x = R2.make (B.of_int a) (B.of_int b) and y = R2.make (B.of_int c) (B.of_int d) in
           R2.is_zero y
           ||
           let q, r = R2.divmod x y in
           R2.equal x (R2.add (R2.mul q y) r)
           && B.compare (B.abs (R2.norm r)) (B.abs (R2.norm y)) < 0));
    Alcotest.test_case "Z[ω] basic identities" `Quick (fun () ->
        Alcotest.(check bool) "ω^8 = 1" true (On.equal (On.pow On.omega 8) On.one);
        Alcotest.(check bool) "ω^2 = i" true (On.equal (On.mul On.omega On.omega) On.i);
        Alcotest.(check bool) "√2² = 2" true
          (On.equal (On.mul On.sqrt2 On.sqrt2) (On.of_ints 2 0 0 0));
        Alcotest.(check bool) "ω·ω† = 1" true (On.equal (On.mul On.omega (On.conj On.omega)) On.one));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"Z[ω] Euclidean division"
         QCheck2.Gen.(
           let coef = int_range (-60) 60 in
           pair (quad coef coef coef coef) (quad coef coef coef coef))
         (fun ((a, b, c, d), (e, f, g, h)) ->
           let x = O.make (B.of_int a) (B.of_int b) (B.of_int c) (B.of_int d) in
           let y = O.make (B.of_int e) (B.of_int f) (B.of_int g) (B.of_int h) in
           O.is_zero y
           ||
           let q, r = O.divmod x y in
           O.equal x (O.add (O.mul q y) r)
           && B.compare (B.abs (O.norm r)) (B.abs (O.norm y)) < 0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"|x|² matches complex embedding"
         QCheck2.Gen.(quad (int_range (-40) 40) (int_range (-40) 40) (int_range (-40) 40) (int_range (-40) 40))
         (fun (a, b, c, d) ->
           let x = On.of_ints a b c d in
           let re, im = On.to_complex x in
           let exact = R2n.to_float (On.abs_sq x) in
           Float.abs (exact -. ((re *. re) +. (im *. im))) < 1e-6 *. (1.0 +. Float.abs exact)));
    Alcotest.test_case "div_sqrt2 inverts mul by √2" `Quick (fun () ->
        let x = On.of_ints 3 (-1) 4 2 in
        let y = On.mul x On.sqrt2 in
        match On.div_sqrt2_opt y with
        | Some z -> Alcotest.(check bool) "round trip" true (On.equal z x)
        | None -> Alcotest.fail "should divide");
  ]

let grid_tests =
  [
    Alcotest.test_case "grid1d finds all solutions in a box" `Quick (fun () ->
        (* Brute force over small coefficients for ground truth. *)
        let x0 = -2.0 and x1 = 3.0 and y0 = -4.0 and y1 = 1.0 in
        let expected = ref [] in
        for a = -20 to 20 do
          for b = -20 to 20 do
            let v = float_of_int a +. (float_of_int b *. Float.sqrt 2.0) in
            let w = float_of_int a -. (float_of_int b *. Float.sqrt 2.0) in
            if v >= x0 && v <= x1 && w >= y0 && w <= y1 then expected := (a, b) :: !expected
          done
        done;
        let got = Grid1d.solve ~x0 ~x1 ~y0 ~y1 in
        let got_pairs =
          List.sort compare
            (List.map (fun (r : R2.t) -> (B.to_int_exn r.R2.a, B.to_int_exn r.R2.b)) got)
        in
        Alcotest.(check (list (pair int int))) "solutions" (List.sort compare !expected) got_pairs);
    Alcotest.test_case "grid1d solutions satisfy constraints (narrow intervals)" `Quick (fun () ->
        let sols = Grid1d.solve ~x0:100.0 ~x1:100.5 ~y0:(-200.0) ~y1:200.0 in
        Alcotest.(check bool) "nonempty" true (sols <> []);
        List.iter
          (fun s ->
            Alcotest.(check bool) "member" true
              (Grid1d.member ~tol:1e-6 s ~x0:100.0 ~x1:100.5 ~y0:(-200.0) ~y1:200.0))
          sols);
    Alcotest.test_case "region candidates lie in the sliver" `Quick (fun () ->
        let theta = 0.9 and epsilon = 0.05 in
        let cands = Region.candidates ~theta ~epsilon ~n:8 in
        Alcotest.(check bool) "found some" true (cands <> []);
        List.iter
          (fun (c : Region.candidate) ->
            let re, im = O.to_complex c.Region.w in
            let s = Float.pow (Float.sqrt 2.0) (float_of_int c.Region.n) in
            let ur = re /. s and ui = im /. s in
            let rho = (ur *. Float.cos (theta /. 2.0)) -. (ui *. Float.sin (theta /. 2.0)) in
            Alcotest.(check bool) "|u| <= 1" true (((ur *. ur) +. (ui *. ui)) <= 1.0 +. 1e-9);
            Alcotest.(check bool) "in sliver" true (rho >= 1.0 -. (epsilon *. epsilon /. 2.0) -. 1e-9))
          cands);
  ]

let diophantine_tests =
  [
    Alcotest.test_case "solves known-solvable norms" `Quick (fun () ->
        (* ξ = |t|² for a selection of t — must be solvable by construction. *)
        List.iter
          (fun (a, b, c, d) ->
            let t = O.make (B.of_int a) (B.of_int b) (B.of_int c) (B.of_int d) in
            let xi = O.abs_sq t in
            match Diophantine.solve xi with
            | Some t' -> Alcotest.(check bool) "norm matches" true (R2.equal (O.abs_sq t') xi)
            | None -> Alcotest.fail "should be solvable")
          [ (1, 0, 0, 0); (1, 1, 0, 0); (2, -1, 3, 0); (5, 2, -1, 3); (0, 7, 1, -2) ]);
    Alcotest.test_case "rejects totally negative" `Quick (fun () ->
        Alcotest.(check bool) "-1 unsolvable" true
          (Diophantine.solve (R2.make B.minus_one B.zero) = None));
    Alcotest.test_case "rejects p ≡ 7 (mod 8) to odd power" `Quick (fun () ->
        (* ξ = 7 is totally positive but 7 ≡ 7 (mod 8) splits π·π• with odd
           exponents, so it is not a relative norm. *)
        Alcotest.(check bool) "7 unsolvable" true (Diophantine.solve (R2.make (B.of_int 7) B.zero) = None));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:150 ~name:"random |t|² round-trips"
         QCheck2.Gen.(quad (int_range (-30) 30) (int_range (-30) 30) (int_range (-30) 30) (int_range (-30) 30))
         (fun (a, b, c, d) ->
           let t = O.make (B.of_int a) (B.of_int b) (B.of_int c) (B.of_int d) in
           let xi = O.abs_sq t in
           match Diophantine.solve xi with
           | Some t' -> R2.equal (O.abs_sq t') xi
           | None -> false));
  ]

(* A random Clifford+T word of up to 80 H·T^(±1) syllables, each
   followed by a Clifford gate half the time: k reaches about 40. *)
let syllable_word_gen =
  QCheck2.Gen.(
    int_range 0 80 >>= fun syllables ->
    list_repeat syllables
      (pair bool (option (oneofl Ctgate.[ S; Sdg; X; Y; Z; H ])))
    >|= fun syl ->
    List.concat_map
      (fun (plus, cliff) ->
        Ctgate.H :: (if plus then Ctgate.T else Ctgate.Tdg) :: Option.to_list cliff)
      syl)

(* The columns [Gridsynth.rz] hands to exact synthesis: the first
   Diophantine-accepted candidates of the levels from the information-
   theoretic start, at most [limit] of them. *)
let accepted_columns ~theta ~epsilon ~limit =
  let need =
    Float.log ((16.0 /. (Float.pi *. (epsilon ** 3.0))) ** 0.25) /. Float.log (Float.sqrt 2.0)
  in
  let n0 = max 0 (int_of_float (Float.ceil need) - 1) in
  let out = ref [] in
  let n = ref n0 in
  while List.length !out < limit && !n <= n0 + 6 do
    List.iteri
      (fun i (c : Region.candidate) ->
        if i < 64 && List.length !out < limit then
          let xi = R2.sub (R2.make (B.shift_left B.one !n) B.zero) (O.abs_sq c.Region.w) in
          match Diophantine.solve xi with
          | Some t -> out := (c.Region.w, t, !n) :: !out
          | None -> ())
      (Region.candidates ~theta ~epsilon ~n:!n);
    incr n
  done;
  List.rev !out

let raises_not_unitary f =
  match f () with
  | _ -> false
  | exception Exact_synth.Not_unitary _ -> true

let exact_synth_tests =
  [
    Alcotest.test_case "reconstructs simple gates" `Quick (fun () ->
        List.iter
          (fun (name, seq) ->
            let target = Ctgate.seq_to_mat2 seq in
            let word = Exact_synth.synthesize (Exact_u.of_seq seq) in
            let d = Mat2.distance target (Ctgate.seq_to_mat2 word) in
            Alcotest.(check bool) (name ^ " reconstructed") true (d < 1e-6))
          [
            ("H", [ Ctgate.H ]);
            ("T", [ Ctgate.T ]);
            ("HTH", Ctgate.[ H; T; H ]);
            ("THTSH", Ctgate.[ T; H; T; S; H ]);
            ("long", Ctgate.[ H; T; H; T; T; H; S; T; H; T; S; H; T; T; T; H ]);
          ]);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"words match the Bigint reference on random words"
         ~print:(fun w -> String.concat " " (List.map Ctgate.to_string w))
         syllable_word_gen
         (fun seq ->
           let u = Exact_u.of_seq seq in
           let word = Exact_synth.synthesize u in
           word = Exact_synth_reference.synthesize (Exact_synth_reference.of_exact_u u)
           && Exact_u.equal_up_to_phase (Exact_u.of_seq word) u));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:40 ~name:"words match the Bigint reference on gridsynth columns"
         ~print:(fun (theta, epsilon) -> Printf.sprintf "theta=%.17g eps=%g" theta epsilon)
         QCheck2.Gen.(pair (float_range (-3.2) 3.2) (oneofl [ 0.1; 0.07; 1e-2; 1e-3; 1e-4 ]))
         (fun (theta, epsilon) ->
           let cols = accepted_columns ~theta ~epsilon ~limit:3 in
           cols <> []
           && List.for_all
                (fun (w, t, n) ->
                  Exact_synth.synthesize_column ~w ~t ~n
                  = Exact_synth_reference.synthesize_column ~w ~t ~n)
                cols));
    Alcotest.test_case "column conversion holds every coefficient to 2^(n/2)" `Quick (fun () ->
        let col x ~n = Exact_synth.synthesize_column ~w:(O.make x B.zero B.zero B.zero) ~t:O.zero ~n in
        (* x/√2^n·I with x = 2^(n/2) is the identity: at the bound, accepted. *)
        List.iter
          (fun n ->
            let top = B.shift_left B.one (n / 2) in
            Alcotest.(check int) (Printf.sprintf "n=%d at the bound" n) 0 (List.length (col top ~n));
            Alcotest.(check bool) (Printf.sprintf "n=%d just above" n) true
              (raises_not_unitary (fun () -> col (B.add_int top 1) ~n));
            Alcotest.(check bool) (Printf.sprintf "n=%d just above, negated" n) true
              (raises_not_unitary (fun () -> col (B.neg (B.add_int top 1)) ~n)))
          [ 2; 10; 40; Exact_synth.max_n ];
        (* Odd n: 2^(n/2) = 45.25… at n = 11, so 45 passes the bound (and
           fails later, not being unitary) while 46 fails at conversion. *)
        let message f = match f () with _ -> "" | exception Exact_synth.Not_unitary m -> m in
        let mentions s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "46 at n=11 names the bound" true
          (mentions (message (fun () -> col (B.of_int 46) ~n:11)) "2^(n/2)");
        Alcotest.(check bool) "45 at n=11 passes the bound" false
          (mentions (message (fun () -> col (B.of_int 45) ~n:11)) "2^(n/2)");
        Alcotest.(check bool) "n above max_n" true
          (raises_not_unitary (fun () -> col B.one ~n:(Exact_synth.max_n + 1))));
    Alcotest.test_case "a non-unitary input exhausts a search bounded by its distinct nodes"
      `Quick (fun () ->
        (* No H·T^(−j) path of length ≤ 12 lowers k here.  The visited
           set keeps the search to 768 distinct matrices; walking every
           path instead would take over a million. *)
        let z = On.of_ints in
        let m =
          Exact_u.make ~a:(z 1 (-2) (-1) 2) ~b:(z 1 (-2) (-2) (-1)) ~c:(z 0 (-1) 2 (-1))
            ~d:(z 0 (-1) (-1) 0) ~k:2
        in
        let w0 = Gc.minor_words () in
        Alcotest.(check bool) "not unitary" true (raises_not_unitary (fun () -> Exact_synth.synthesize m));
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool) (Printf.sprintf "bounded search (%.0f words)" words) true (words < 2e6));
  ]

let end_to_end_tests =
  [
    Alcotest.test_case "rz meets thresholds across angles" `Quick (fun () ->
        List.iter
          (fun theta ->
            List.iter
              (fun eps ->
                let r = Gridsynth.rz ~theta ~epsilon:eps () in
                Alcotest.(check bool)
                  (Printf.sprintf "theta=%g eps=%g dist=%g" theta eps r.Gridsynth.distance)
                  true
                  (r.Gridsynth.distance <= eps))
              [ 0.1; 0.01 ])
          [ 0.0001; 0.61; 1.5707; 3.1; -2.8; 6.2 ]);
    Alcotest.test_case "rz T-count tracks 3·log2(1/eps)" `Quick (fun () ->
        let r = Gridsynth.rz ~theta:0.61 ~epsilon:1e-3 () in
        Alcotest.(check bool)
          (Printf.sprintf "T=%d" r.Gridsynth.t_count)
          true
          (r.Gridsynth.t_count >= 15 && r.Gridsynth.t_count <= 45));
    Alcotest.test_case "u3 synthesizes arbitrary unitaries" `Quick (fun () ->
        let rng = Random.State.make [| 5 |] in
        for _ = 1 to 3 do
          let target = Mat2.random_unitary rng in
          let theta, phi, lam = Mat2.to_u3_angles target in
          let r = Gridsynth.u3 ~theta ~phi ~lam ~epsilon:0.01 () in
          Alcotest.(check bool) "within eps" true (r.Gridsynth.distance <= 0.01)
        done);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:25 ~name:"rz random angles at 1e-2"
         QCheck2.Gen.(float_range (-3.1) 3.1)
         (fun theta ->
           let r = Gridsynth.rz ~theta ~epsilon:1e-2 () in
           r.Gridsynth.distance <= 1e-2));
  ]

(* gridsynth_words.expected holds words written while every Bigint had
   limbs, at ε 1e-3 and 1e-4, where operands run larger than at the
   suite digest's ε 0.07. *)
let golden_words_tests =
  [
    Alcotest.test_case "rz returns the golden words at eps 1e-3 and 1e-4" `Quick (fun () ->
        (* Beside the executable under runtest; from the source tree when
           the executable is run by hand from the repository root. *)
        let path =
          List.find Sys.file_exists
            [ Filename.concat (Filename.dirname Sys.executable_name) "gridsynth_words.expected";
              "test/gridsynth_words.expected" ]
        in
        let lines =
          In_channel.with_open_text path In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        in
        let saved = Random.get_state () in
        let mismatches =
          List.filter
            (fun expected ->
              Scanf.sscanf expected "%h %h " (fun epsilon theta ->
                  Random.init 0;
                  let r = Gridsynth.rz ~theta ~epsilon () in
                  let got =
                    Printf.sprintf "%h %h %d %h %s" epsilon theta r.Gridsynth.candidates_tried
                      r.Gridsynth.distance (Ctgate.seq_to_string r.Gridsynth.seq)
                  in
                  got <> expected))
            lines
        in
        Random.set_state saved;
        Alcotest.(check int) "lines" 478 (List.length lines);
        Alcotest.(check (list string)) "mismatched lines" [] mismatches);
  ]

let suite = ring_tests @ grid_tests @ diophantine_tests @ exact_synth_tests @ end_to_end_tests

(* Rounding-division convention backing the Euclidean ring division. *)
let rounding_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"div_round_nearest matches float rounding"
         QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range 1 5000))
         (fun (n, d) ->
           let q = Ring_int.Native.div_round_nearest n d in
           let exact = float_of_int n /. float_of_int d in
           (* Nearest integer, ties allowed either way within 1/2. *)
           Float.abs (float_of_int q -. exact) <= 0.5 +. 1e-12));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"big div_round_nearest agrees with native"
         QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range 1 5000))
         (fun (n, d) ->
           let qn = Ring_int.Native.div_round_nearest n d in
           let qb = Ring_int.Big.div_round_nearest (Bigint.of_int n) (Bigint.of_int d) in
           Bigint.to_int_opt qb = Some qn));
  ]

let suite = suite @ rounding_tests

(* The failure frontier: GRIDSYNTH must fail loudly and promptly, not
   loop, when asked for the impossible. *)
let frontier_tests =
  [
    Alcotest.test_case "an expired deadline aborts the search" `Quick (fun () ->
        match Gridsynth.rz ~deadline:(Obs.Deadline.at 0.0) ~theta:0.61 ~epsilon:1e-3 () with
        | exception Gridsynth.Synthesis_failed msg ->
            Alcotest.(check bool) "mentions the deadline" true
              (let n = String.length msg in
               let rec go i = i + 8 <= n && (String.sub msg i 8 = "deadline" || go (i + 1)) in
               go 0)
        | _ -> Alcotest.fail "should not have synthesized");
    Alcotest.test_case "deadline abort is counted" `Quick (fun () ->
        let was = Obs.enabled () in
        Obs.set_enabled true;
        Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
        let c = Obs.counter "gridsynth.deadline_expired" in
        let v0 = Obs.counter_value c in
        (try ignore (Gridsynth.rz ~deadline:(Obs.Deadline.at 0.0) ~theta:0.61 ~epsilon:1e-3 ())
         with Gridsynth.Synthesis_failed _ -> ());
        Alcotest.(check bool) "counter bumped" true (Obs.counter_value c > v0));
    Alcotest.test_case "a starved search fails rather than looping" `Quick (fun () ->
        (* One candidate at the starting level only: deterministic miss
           for a tight epsilon, and it must return promptly. *)
        let t0 = Unix.gettimeofday () in
        (match Gridsynth.rz ~max_extra_n:0 ~candidates_per_n:1 ~theta:0.5234 ~epsilon:1e-6 () with
        | exception Gridsynth.Synthesis_failed _ -> ()
        | r ->
            (* If that single candidate does solve, the contract still
               holds: the result must meet the threshold. *)
            Alcotest.(check bool) "met epsilon" true (r.Gridsynth.distance <= 1e-6));
        Alcotest.(check bool) "prompt" true (Unix.gettimeofday () -. t0 < 10.0));
    Alcotest.test_case "u3 propagates the deadline to its rz calls" `Quick (fun () ->
        match
          Gridsynth.u3 ~deadline:(Obs.Deadline.at 0.0) ~theta:0.4 ~phi:1.1 ~lam:(-0.7)
            ~epsilon:1e-2 ()
        with
        | exception Gridsynth.Synthesis_failed _ -> ()
        | _ -> Alcotest.fail "should not have synthesized");
    Alcotest.test_case "out-of-range epsilons return or fail promptly" `Quick (fun () ->
        (* ε ≤ 0 and NaN are rejected; ε ≥ 1 is met by the empty word;
           below the working range every level's grid problem is
           oversized, so each level fails at the cost of counting it. *)
        List.iter
          (fun epsilon ->
            let t0 = Unix.gettimeofday () in
            let outcome =
              match Gridsynth.rz ~theta:0.61 ~epsilon () with
              | r -> if r.Gridsynth.distance <= epsilon then `Met else `Missed
              | exception Gridsynth.Synthesis_failed _ -> `Failed
            in
            let dt = Unix.gettimeofday () -. t0 in
            let name = Printf.sprintf "eps=%g" epsilon in
            Alcotest.(check bool) (name ^ " outcome") true
              (if epsilon > 0.0 then outcome <> `Missed else outcome = `Failed);
            Alcotest.(check bool) (Printf.sprintf "%s finished in %.2fs" name dt) true (dt < 10.0))
          [ 0.0; -1.0; Float.nan; Float.infinity; 2.0; 5.0; 1e-7; 1e-9; 1e-300 ]);
    Alcotest.test_case "grid1d counts a window before building it" `Quick (fun () ->
        Alcotest.(check bool) "≈ 3.5·10^13 points are refused" true
          (match Grid1d.solve ~x0:0.0 ~x1:1e7 ~y0:0.0 ~y1:1e7 with
          | _ -> false
          | exception Grid1d.Too_large -> true);
        Alcotest.(check bool) "a non-finite bound counts as infinite" true
          (Grid1d.count (Grid1d.window ~x0:0.0 ~x1:Float.infinity ~y0:0.0 ~y1:1.0) = Float.infinity);
        (* A zero-width interval rebalances by λ^200, where no b fits a
           native int. *)
        Alcotest.(check int) "zero width far from 0 is empty" 0
          (List.length (Grid1d.solve ~x0:1e4 ~x1:1e4 ~y0:(-1e4) ~y1:1e4)));
  ]

let suite = suite @ frontier_tests @ golden_words_tests
