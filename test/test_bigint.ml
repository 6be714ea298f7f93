(* Tests for the arbitrary-precision integer substrate. *)

module B = Bigint

let b = B.of_int
let check_b msg expected actual = Alcotest.(check string) msg (B.to_string expected) (B.to_string actual)

(* Generator for ints whose products still fit in native arithmetic. *)
let small_int = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000

(* Arbitrary-size integers built from decimal strings. *)
let big_gen =
  QCheck2.Gen.(
    let* n_digits = int_range 1 60 in
    let* sign = bool in
    let* digits = list_repeat n_digits (int_range 0 9) in
    let s = String.concat "" (List.map string_of_int digits) in
    return (B.of_string (if sign then s else "-" ^ s)))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

let unit_tests =
  [
    Alcotest.test_case "of_int/to_string round trips" `Quick (fun () ->
        List.iter
          (fun n -> Alcotest.(check string) "decimal" (string_of_int n) (B.to_string (b n)))
          [ 0; 1; -1; 42; -42; max_int; min_int; 1 lsl 31; (1 lsl 31) - 1 ]);
    Alcotest.test_case "of_string parses big decimals" `Quick (fun () ->
        let s = "123456789012345678901234567890" in
        Alcotest.(check string) "round trip" s (B.to_string (B.of_string s));
        Alcotest.(check string) "negative" ("-" ^ s) (B.to_string (B.of_string ("-" ^ s))));
    Alcotest.test_case "big multiplication known value" `Quick (fun () ->
        let a = B.of_string "123456789123456789" in
        check_b "square" (B.of_string "15241578780673678515622620750190521") (B.mul a a));
    Alcotest.test_case "divmod big known value" `Quick (fun () ->
        let a = B.of_string "10000000000000000000000000000000000000001" in
        let d = B.of_string "1234567890123456789" in
        let q, r = B.divmod a d in
        check_b "reconstruct" a (B.add (B.mul q d) r);
        Alcotest.(check bool) "remainder small" true (B.compare (B.abs r) (B.abs d) < 0));
    Alcotest.test_case "pow" `Quick (fun () ->
        check_b "2^100" (B.of_string "1267650600228229401496703205376") (B.pow (b 2) 100));
    Alcotest.test_case "min_int handled" `Quick (fun () ->
        Alcotest.(check string) "min_int" (string_of_int min_int) (B.to_string (b min_int));
        Alcotest.(check (option int)) "back" (Some min_int) (B.to_int_opt (b min_int)));
    Alcotest.test_case "sqrt exact and floor" `Quick (fun () ->
        check_b "sqrt 10^40" (B.pow (b 10) 20) (B.sqrt (B.pow (b 10) 40));
        check_b "floor" (b 3) (B.sqrt (b 15));
        Alcotest.(check bool) "is_square yes" true (B.is_square (B.mul (B.of_string "987654321987654321") (B.of_string "987654321987654321")));
        Alcotest.(check bool) "is_square no" false (B.is_square (b 15)));
    Alcotest.test_case "powmod matches naive" `Quick (fun () ->
        let m = b 1_000_003 in
        let naive b_ e =
          let rec go acc i = if i = 0 then acc else go (acc * b_ mod 1_000_003) (i - 1) in
          go 1 e
        in
        List.iter
          (fun (base, e) ->
            Alcotest.(check int) "powmod" (naive base e) (B.to_int_exn (B.powmod (b base) (b e) m)))
          [ (2, 10); (3, 100); (999, 999); (123456, 7) ]);
    Alcotest.test_case "shift left/right" `Quick (fun () ->
        check_b "shl" (B.pow (b 2) 100) (B.shift_left B.one 100);
        check_b "shr" (B.pow (b 2) 60) (B.shift_right (B.pow (b 2) 100) 40);
        check_b "shr negative magnitude" (b (-4)) (B.shift_right (b (-16)) 2));
    Alcotest.test_case "gcd" `Quick (fun () ->
        check_b "gcd" (b 12) (B.gcd (b 36) (b (-24)));
        check_b "gcd big" (B.of_string "9") (B.gcd (B.of_string "123456789") (B.of_string "987654321")));
    Alcotest.test_case "ediv_rem always nonnegative" `Quick (fun () ->
        List.iter
          (fun (a, d) ->
            let q, r = B.ediv_rem (b a) (b d) in
            Alcotest.(check bool) "r >= 0" true (B.sign r >= 0);
            check_b "reconstruct" (b a) (B.add (B.mul q (b d)) r))
          [ (7, 3); (-7, 3); (7, -3); (-7, -3); (0, 5) ]);
  ]

let property_tests =
  [
    prop "add matches native" QCheck2.Gen.(pair small_int small_int) (fun (x, y) ->
        B.to_int_opt (B.add (b x) (b y)) = Some (x + y));
    prop "mul matches native" QCheck2.Gen.(pair small_int small_int) (fun (x, y) ->
        B.to_int_opt (B.mul (b x) (b y)) = Some (x * y));
    prop "divmod matches native" QCheck2.Gen.(pair small_int small_int) (fun (x, y) ->
        y = 0
        ||
        let q, r = B.divmod (b x) (b y) in
        B.to_int_opt q = Some (x / y) && B.to_int_opt r = Some (x mod y));
    prop "string round trip" big_gen (fun x -> B.equal x (B.of_string (B.to_string x)));
    prop "add/sub inverse" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        B.equal x (B.sub (B.add x y) y));
    prop "mul distributes" QCheck2.Gen.(triple big_gen big_gen big_gen) (fun (x, y, z) ->
        B.equal (B.mul x (B.add y z)) (B.add (B.mul x y) (B.mul x z)));
    prop "divmod reconstruction" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        B.is_zero y
        ||
        let q, r = B.divmod x y in
        B.equal x (B.add (B.mul q y) r) && B.compare (B.abs r) (B.abs y) < 0);
    prop "compare consistent with sub" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        compare (B.compare x y) 0 = compare (B.sign (B.sub x y)) 0);
    prop "to_float approximates" big_gen (fun x ->
        let f = B.to_float x in
        let back = B.to_string x in
        (* Compare leading digits via logarithms when the value is large. *)
        if String.length back > 15 then Float.is_finite f || String.length back > 300
        else f = float_of_string back);
    prop "sqrt bounds" big_gen (fun x ->
        let x = B.abs x in
        let r = B.sqrt x in
        B.compare (B.mul r r) x <= 0 && B.compare (B.mul (B.add r B.one) (B.add r B.one)) x > 0);
    prop "num_bits consistent" big_gen (fun x ->
        B.is_zero x
        ||
        let n = B.num_bits x in
        B.compare (B.abs x) (B.shift_left B.one n) < 0
        && B.compare (B.abs x) (B.shift_left B.one (n - 1)) >= 0);
  ]

let ntheory_tests =
  [
    Alcotest.test_case "primality of known primes" `Quick (fun () ->
        List.iter
          (fun p -> Alcotest.(check bool) (string_of_int p) true (Ntheory.is_probable_prime (b p)))
          [ 2; 3; 5; 97; 7919; 104729; 1_000_003; 2_147_483_647 ]);
    Alcotest.test_case "primality of known composites" `Quick (fun () ->
        List.iter
          (fun p -> Alcotest.(check bool) (string_of_int p) false (Ntheory.is_probable_prime (b p)))
          [ 1; 4; 561; 1105; 6601; 2_147_483_649 ]);
    Alcotest.test_case "big prime recognized" `Quick (fun () ->
        (* 2^89 - 1 is a Mersenne prime. *)
        let p = B.sub (B.pow (b 2) 89) B.one in
        Alcotest.(check bool) "mersenne 89" true (Ntheory.is_probable_prime p);
        let c = B.sub (B.pow (b 2) 87) B.one in
        Alcotest.(check bool) "2^87-1 composite" false (Ntheory.is_probable_prime c));
    Alcotest.test_case "factor small" `Quick (fun () ->
        match Ntheory.factor (b 5040) with
        | Some fs ->
            let rendered = List.map (fun (p, e) -> (B.to_int_exn p, e)) fs in
            Alcotest.(check (list (pair int int))) "5040" [ (2, 4); (3, 2); (5, 1); (7, 1) ] rendered
        | None -> Alcotest.fail "factor failed");
    Alcotest.test_case "factor reconstructs" `Quick (fun () ->
        let n = B.of_string "12345678901234567" in
        match Ntheory.factor n with
        | Some fs ->
            let prod = List.fold_left (fun acc (p, e) -> B.mul acc (B.pow p e)) B.one fs in
            check_b "product" n prod;
            List.iter (fun (p, _) -> Alcotest.(check bool) "prime factor" true (Ntheory.is_probable_prime p)) fs
        | None -> Alcotest.fail "factor failed");
    Alcotest.test_case "jacobi matches Legendre for p=23" `Quick (fun () ->
        let p = 23 in
        let is_qr a =
          let rec go x = x < p && ((x * x) mod p = a mod p || go (x + 1)) in
          go 1
        in
        for a = 1 to p - 1 do
          let expected = if is_qr a then 1 else -1 in
          Alcotest.(check int) (Printf.sprintf "(%d/23)" a) expected (Ntheory.jacobi (b a) (b p))
        done);
    Alcotest.test_case "sqrt_mod" `Quick (fun () ->
        let p = b 1_000_003 in
        List.iter
          (fun a ->
            match Ntheory.sqrt_mod (b (a * a)) p with
            | Some r ->
                let rr = B.to_int_exn (B.erem (B.mul r r) p) in
                Alcotest.(check int) "square" ((a * a) mod 1_000_003) rr
            | None -> Alcotest.fail "should be a residue")
          [ 2; 3; 1234; 999_999 ]);
    Alcotest.test_case "sqrt_mod non-residue" `Quick (fun () ->
        (* 5 is a non-residue mod 7919?  Check via Jacobi first. *)
        let p = b 7919 in
        let a = b 7 in
        if Ntheory.jacobi a p = -1 then
          Alcotest.(check bool) "none" true (Ntheory.sqrt_mod a p = None));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100 ~name:"sqrt_mod inverts squares mod big prime"
         QCheck2.Gen.(int_range 2 1_000_000)
         (fun a ->
           let p = B.sub (B.pow (b 2) 89) B.one in
           let a2 = B.erem (B.mul (b a) (b a)) p in
           match Ntheory.sqrt_mod a2 p with
           | Some r -> B.equal (B.erem (B.mul r r) p) a2
           | None -> false));
  ]

let suite = unit_tests @ property_tests @ ntheory_tests

(* Crafted stress around limb boundaries: exercises the qhat-correction
   and add-back paths of Knuth's algorithm D. *)
let boundary_division_tests =
  [
    Alcotest.test_case "division at powers-of-two boundaries" `Quick (fun () ->
        let interesting =
          List.concat_map
            (fun k ->
              let p = B.shift_left B.one k in
              [ p; B.sub p B.one; B.add p B.one; B.sub p (b 2); B.add p (b 2) ])
            [ 30; 31; 32; 61; 62; 63; 92; 93; 124; 155 ]
        in
        List.iter
          (fun u ->
            List.iter
              (fun v ->
                if not (B.is_zero v) then begin
                  let q, r = B.divmod u v in
                  check_b "reconstruct" u (B.add (B.mul q v) r);
                  Alcotest.(check bool) "remainder bound" true (B.compare (B.abs r) (B.abs v) < 0)
                end)
              interesting)
          interesting);
    Alcotest.test_case "division by near-base divisors" `Quick (fun () ->
        (* Divisors with a maximal top limb force the qhat adjustment. *)
        let base31 = B.shift_left B.one 31 in
        let v = B.sub (B.mul base31 base31) B.one in
        for i = 0 to 20 do
          let u = B.add (B.shift_left B.one (80 + i)) (b i) in
          let q, r = B.divmod u v in
          check_b "reconstruct" u (B.add (B.mul q v) r)
        done);
  ]

let suite = suite @ boundary_division_tests

(* ------------------------------------------------------------------ *)
(* Every operation against the limb-only oracle                        *)
(* ------------------------------------------------------------------ *)

module R = Bigint_reference

let pow2 k = R.shift_left R.one k

(* Operands drawn around each edge of the native range and the small
   case's 2^61 bound (0, ±1, ±2^30, ±2^31, ±(2^61 − 1), ±2^61, ±2^62,
   max_int, min_int, each ± 2), mixed with multi-limb and plain native
   values.  They travel as decimal strings, so each side parses its own. *)
let operand =
  QCheck2.Gen.(
    let edge =
      oneofl
        [ R.zero; R.one; pow2 30; pow2 31; R.sub (pow2 61) R.one; pow2 61; pow2 62;
          R.of_int max_int; R.of_int min_int ]
    in
    let near =
      let* e = edge and* d = int_range (-2) 2 and* negate = bool in
      let v = R.add e (R.of_int d) in
      return (if negate then R.neg v else v)
    in
    let multi_limb =
      let* n_digits = int_range 19 60 and* negate = bool in
      let* digits = list_repeat n_digits (int_range 0 9) in
      let v = R.of_string (String.concat "" (List.map string_of_int digits)) in
      return (if negate then R.neg v else v)
    in
    let native = map R.of_int (oneof [ int_range (-1_000_000) 1_000_000; int ]) in
    map R.to_string (frequency [ (4, near); (2, multi_limb); (2, native) ]))

let native_operand =
  QCheck2.Gen.(
    oneof
      [ oneofl
          [ 0; 1; -1; 1 lsl 30; 1 lsl 31; (1 lsl 61) - 1; 1 lsl 61; -(1 lsl 61); max_int; min_int ];
        int_range (-1_000_000) 1_000_000; int ])

(* The same value as the oracle's, in the one representation a parse
   builds, with the oracle's hash. *)
let agrees b r =
  B.to_string b = R.to_string r && B.equal b (B.of_string (R.to_string r)) && B.hash b = R.hash r

let agrees2 (b1, b2) (r1, r2) = agrees b1 r1 && agrees b2 r2

(* [Some] result, or [None] when the operation raises one of the
   exceptions the interface documents. *)
let guarded f =
  match f () with
  | v -> Some v
  | exception (Division_by_zero | Failure _ | Invalid_argument _) -> None

let oracle_prop ?(count = 1000) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let show2 (x, y) = x ^ ", " ^ y

let oracle_tests =
  let open QCheck2.Gen in
  [
    oracle_prop "oracle: of_string, to_string and of_int" (pair operand native_operand)
      (fun (s, n) -> s ^ ", " ^ string_of_int n)
      (fun (s, n) -> agrees (B.of_string s) (R.of_string s) && agrees (B.of_int n) (R.of_int n));
    oracle_prop "oracle: conversions and predicates" operand Fun.id (fun s ->
        let x = B.of_string s and r = R.of_string s in
        B.to_int_opt x = R.to_int_opt r
        && guarded (fun () -> B.to_int_exn x) = guarded (fun () -> R.to_int_exn r)
        && Int64.equal (Int64.bits_of_float (B.to_float x)) (Int64.bits_of_float (R.to_float r))
        && B.sign x = R.sign r
        && B.is_zero x = R.is_zero r
        && B.is_even x = R.is_even r
        && B.num_bits x = R.num_bits r);
    oracle_prop "oracle: neg, abs, sqrt and is_square" operand Fun.id (fun s ->
        let x = B.of_string s and r = R.of_string s in
        let sq = B.mul x x and rsq = R.mul r r in
        agrees (B.neg x) (R.neg r)
        && agrees (B.abs x) (R.abs r)
        && guarded (fun () -> B.to_string (B.sqrt x)) = guarded (fun () -> R.to_string (R.sqrt r))
        && agrees (B.sqrt sq) (R.sqrt rsq)
        && B.is_square x = R.is_square r
        && B.is_square sq = R.is_square rsq);
    oracle_prop "oracle: add, sub, mul, compare, equal and gcd" (pair operand operand) show2
      (fun (s, t) ->
        let x = B.of_string s and y = B.of_string t and r = R.of_string s and q = R.of_string t in
        agrees (B.add x y) (R.add r q)
        && agrees (B.sub x y) (R.sub r q)
        && agrees (B.mul x y) (R.mul r q)
        && B.compare x y = R.compare r q
        && B.equal x y = R.equal r q
        && agrees (B.gcd x y) (R.gcd r q));
    oracle_prop "oracle: divmod, div, rem, ediv_rem and erem" (pair operand operand) show2
      (fun (s, t) ->
        let x = B.of_string s and y = B.of_string t and r = R.of_string s and q = R.of_string t in
        let same f g =
          match (guarded f, guarded g) with
          | Some b, Some r -> agrees2 b r
          | None, None -> true
          | _ -> false
        in
        let same1 f g = same (fun () -> (f (), B.zero)) (fun () -> (g (), R.zero)) in
        same (fun () -> B.divmod x y) (fun () -> R.divmod r q)
        && same (fun () -> B.ediv_rem x y) (fun () -> R.ediv_rem r q)
        && same1 (fun () -> B.div x y) (fun () -> R.div r q)
        && same1 (fun () -> B.rem x y) (fun () -> R.rem r q)
        && same1 (fun () -> B.erem x y) (fun () -> R.erem r q)
        && same (fun () -> B.divmod x B.zero) (fun () -> R.divmod r R.zero));
    oracle_prop "oracle: shift_left and shift_right" (pair operand (int_range 0 130))
      (fun (s, k) -> s ^ ", " ^ string_of_int k)
      (fun (s, k) ->
        let x = B.of_string s and r = R.of_string s in
        agrees (B.shift_left x k) (R.shift_left r k)
        && agrees (B.shift_right x k) (R.shift_right r k));
    oracle_prop "oracle: mul_int and add_int" (pair operand native_operand)
      (fun (s, n) -> s ^ ", " ^ string_of_int n)
      (fun (s, n) ->
        let x = B.of_string s and r = R.of_string s in
        agrees (B.mul_int x n) (R.mul_int r n) && agrees (B.add_int x n) (R.add_int r n));
    oracle_prop ~count:300 "oracle: pow and powmod" (quad operand (int_range 0 4) operand operand)
      (fun (s, e, t, u) -> String.concat ", " [ s; string_of_int e; t; u ])
      (fun (s, e, t, u) ->
        let x = B.of_string s and r = R.of_string s in
        let ex = B.abs (B.of_string t) and er = R.abs (R.of_string t) in
        let m = B.add_int (B.abs (B.of_string u)) 1 and mr = R.add_int (R.abs (R.of_string u)) 1 in
        agrees (B.pow x e) (R.pow r e) && agrees (B.powmod x ex m) (R.powmod r er mr));
    oracle_prop "oracle: random_below draws the same values under one seed" (pair operand small_int)
      (fun (s, seed) -> s ^ ", seed " ^ string_of_int seed)
      (fun (s, seed) ->
        let bound = B.add_int (B.abs (B.of_string s)) 1
        and rbound = R.add_int (R.abs (R.of_string s)) 1 in
        let saved = Random.get_state () in
        let draw f =
          Random.init seed;
          let xs = List.init 4 (fun _ -> f ()) in
          (xs, Random.bits ())
        in
        let bs, b_next = draw (fun () -> B.random_below bound) in
        let rs, r_next = draw (fun () -> R.random_below rbound) in
        Random.set_state saved;
        List.for_all2 agrees bs rs && b_next = r_next);
    oracle_prop "equal values hash equal" (pair operand operand) show2 (fun (s, t) ->
        let x = B.of_string s and z = B.of_string t in
        let y = B.sub (B.add x z) z in
        B.equal x y && B.hash x = B.hash y);
  ]

let suite = suite @ oracle_tests

(* A bound whose top limb is 1 keeps about half of random_below's
   draws: when every limb was drawn below 2^31, these two took ≈ 2^30
   tries per value. *)
let random_below_tests =
  [
    Alcotest.test_case "random_below returns below 2^31 + 1 and 2^62 + 1" `Quick (fun () ->
        let saved = Random.get_state () in
        Fun.protect ~finally:(fun () -> Random.set_state saved) @@ fun () ->
        List.iter
          (fun bits ->
            let bound = B.add_int (B.shift_left B.one bits) 1 and rbound = R.add_int (R.shift_left R.one bits) 1 in
            let name = Printf.sprintf "2^%d + 1" bits in
            Random.init bits;
            let xs = List.init 200 (fun _ -> B.random_below bound) in
            Random.init bits;
            let rs = List.init 200 (fun _ -> R.random_below rbound) in
            List.iter
              (fun x ->
                Alcotest.(check bool) (name ^ ": in [0, bound)") true (B.sign x >= 0 && B.compare x bound < 0))
              xs;
            Alcotest.(check bool) (name ^ ": the oracle's draws") true (List.for_all2 agrees xs rs))
          [ 31; 62 ]);
  ]

let suite = suite @ random_below_tests
