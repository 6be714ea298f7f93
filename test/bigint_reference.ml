(* The limb-only [Bigint] that the small-value case replaced, kept as a
   test oracle: every value, however small, is a sign and a
   little-endian magnitude in base 2^31.  test_bigint checks each
   [Bigint] operation against it on operands drawn around the edges of
   the native range (the same value, [to_float] bit for bit, the same
   hash, the same [random_below] draws under one seed).

   The base is chosen so that a limb product fits a 63-bit native int
   (31 + 31 = 62 bits), which keeps multiplication and Knuth's division
   algorithm D free of any double-word tricks. *)

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1

type t = { sign : int; mag : int array }
(* Invariants: [sign] is -1, 0 or 1; [mag] has no leading (high) zero limb;
   [sign = 0] iff [mag] is empty. *)

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude (unsigned) helpers                                        *)
(* ------------------------------------------------------------------ *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r.(lr - 1) <- !carry;
  mag_normalize r

(* Precondition: a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then (
      r.(i) <- s + base;
      borrow := 1)
    else (
      r.(i) <- s;
      borrow := 0)
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let p = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- p land mask;
        carry := p lsr limb_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    mag_normalize r
  end

(* Short division by a native int 0 < d < base. *)
let mag_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_normalize q, !r)

let nlz31 x =
  (* Leading zeros of a 31-bit value, 0 < x < base. *)
  let rec go n b = if x land (b lsl n) <> 0 then 30 - n else go (n - 1) b in
  go 30 1

let mag_shift_left a s =
  if Array.length a = 0 || s = 0 then Array.copy a
  else begin
    let word = s / limb_bits and bit = s mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + word + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit in
      r.(i + word) <- r.(i + word) lor (v land mask);
      r.(i + word + 1) <- r.(i + word + 1) lor (v lsr limb_bits)
    done;
    mag_normalize r
  end

let mag_shift_right a s =
  if Array.length a = 0 then [||]
  else begin
    let word = s / limb_bits and bit = s mod limb_bits in
    let la = Array.length a in
    if word >= la then [||]
    else begin
      let lr = la - word in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + word) lsr bit in
        let hi = if bit > 0 && i + word + 1 < la then (a.(i + word + 1) lsl (limb_bits - bit)) land mask else 0 in
        r.(i) <- lo lor hi
      done;
      mag_normalize r
    end
  end

(* Knuth algorithm D.  Returns (quotient, remainder) magnitudes. *)
let mag_divmod u v =
  let lv = Array.length v in
  if lv = 0 then raise Division_by_zero;
  if mag_compare u v < 0 then ([||], Array.copy u)
  else if lv = 1 then begin
    let q, r = mag_divmod_small u v.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    let s = nlz31 v.(lv - 1) in
    let vn = mag_shift_left v s in
    let un0 = mag_shift_left u s in
    let lu = Array.length u in
    (* Working copy of the dividend with one extra high limb. *)
    let un = Array.make (lu + 1) 0 in
    Array.blit un0 0 un 0 (Array.length un0);
    let n = lv and m = lu - lv in
    let q = Array.make (m + 1) 0 in
    for j = m downto 0 do
      let top = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
      let qhat = ref (top / vn.(n - 1)) and rhat = ref (top mod vn.(n - 1)) in
      let continue_adjust = ref true in
      while !continue_adjust do
        if !qhat >= base || !qhat * vn.(n - 2) > (!rhat lsl limb_bits) lor un.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + vn.(n - 1);
          if !rhat >= base then continue_adjust := false
        end
        else continue_adjust := false
      done;
      (* Multiply and subtract. *)
      let k = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * vn.(i) in
        let t = un.(i + j) - !k - (p land mask) in
        un.(i + j) <- t land mask;
        k := (p lsr limb_bits) - (t asr limb_bits)
      done;
      let t = un.(j + n) - !k in
      un.(j + n) <- t land mask;
      if t < 0 then begin
        (* qhat was one too large: add back. *)
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s2 = un.(i + j) + vn.(i) + !carry in
          un.(i + j) <- s2 land mask;
          carry := s2 lsr limb_bits
        done;
        un.(j + n) <- (un.(j + n) + !carry) land mask
      end;
      q.(j) <- !qhat
    done;
    let r = mag_shift_right (mag_normalize un) s in
    (mag_normalize q, r)
  end

(* ------------------------------------------------------------------ *)
(* Signed interface                                                    *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    (* min_int negation overflows; route through two limbs directly. *)
    let lo = n land mask in
    let mid = (n lsr limb_bits) land mask in
    let hi = (n lsr (2 * limb_bits)) land 1 in
    if n > 0 then make sign [| lo; mid; hi |]
    else begin
      (* Two's complement magnitude of a negative int. *)
      let m = if n = min_int then { sign = 1; mag = [| 0; 0; 1 |] } else make 1 [| -n land mask; (-n lsr limb_bits) land mask; (-n lsr (2 * limb_bits)) land 1 |] in
      { m with sign = -1 }
    end
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let sign x = x.sign
let is_zero x = x.sign = 0

let to_int_opt x =
  match Array.length x.mag with
  | 0 -> Some 0
  | 1 -> Some (x.sign * x.mag.(0))
  | 2 -> Some (x.sign * ((x.mag.(1) lsl limb_bits) lor x.mag.(0)))
  | 3 when x.mag.(2) = 0 -> Some (x.sign * ((x.mag.(1) lsl limb_bits) lor x.mag.(0)))
  | 3 when x.mag.(2) = 1 && x.mag.(1) = 0 && x.mag.(0) = 0 && x.sign = -1 -> Some min_int
  | _ -> None

let to_int_exn x =
  match to_int_opt x with Some n -> n | None -> failwith "Bigint.to_int_exn: overflow"

let to_float x =
  let acc = ref 0.0 in
  for i = Array.length x.mag - 1 downto 0 do
    acc := (!acc *. 2147483648.0) +. float_of_int x.mag.(i)
  done;
  float_of_int x.sign *. !acc

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0

let hash x =
  let h = ref (x.sign + 17) in
  Array.iter (fun limb -> h := (!h * 1000003) lxor limb) x.mag;
  !h land max_int

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (mag_sub a.mag b.mag)
    else make b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero else make (a.sign * b.sign) (mag_mul a.mag b.mag)

let mul_int a n = mul a (of_int n)
let add_int a n = add a (of_int n)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = mag_divmod a.mag b.mag in
  (make (a.sign * b.sign) q, make a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (sub q one, add r b)
  else (add q one, sub r b)

let erem a b = snd (ediv_rem a b)
let shift_left a s = if s = 0 then a else make a.sign (mag_shift_left a.mag s)
let shift_right a s = if s = 0 then a else make a.sign (mag_shift_right a.mag s)

let num_bits x =
  let l = Array.length x.mag in
  if l = 0 then 0 else (l - 1) * limb_bits + (limb_bits - nlz31 x.mag.(l - 1))

let is_even x = Array.length x.mag = 0 || x.mag.(0) land 1 = 0

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let rec gcd a b = if is_zero b then abs a else gcd b (rem a b)

let sqrt x =
  if x.sign < 0 then invalid_arg "Bigint.sqrt: negative";
  if x.sign = 0 then zero
  else begin
    (* Newton iteration from a float seed widened to be an upper bound. *)
    let bits = num_bits x in
    let guess = shift_left one ((bits / 2) + 1) in
    let rec refine g =
      let g' = shift_right (add g (div x g)) 1 in
      if compare g' g < 0 then refine g' else g
    in
    refine guess
  end

let is_square x =
  if x.sign < 0 then false
  else
    let r = sqrt x in
    equal (mul r r) x

let powmod b e m =
  if e.sign < 0 then invalid_arg "Bigint.powmod: negative exponent";
  if m.sign <= 0 then invalid_arg "Bigint.powmod: modulus must be positive";
  let b = ref (erem b m) and e = ref e and acc = ref one in
  while not (is_zero !e) do
    if not (is_even !e) then acc := erem (mul !acc !b) m;
    b := erem (mul !b !b) m;
    e := shift_right !e 1
  done;
  !acc

(* Limbs low to high, each uniform in [0, 2^31) except the top one,
   uniform in [0, top limb of the bound]; a draw at or above the bound
   is rejected. *)
let random_below bound =
  if bound.sign <= 0 then invalid_arg "Bigint.random_below: bound must be positive";
  let l = Array.length bound.mag in
  let top = bound.mag.(l - 1) in
  let rec attempt () =
    let mag = Array.init l (fun i -> Random.full_int (if i = l - 1 then top + 1 else base)) in
    let x = make 1 mag in
    if compare x bound < 0 then x else attempt ()
  in
  attempt ()

let of_string s =
  let s = String.trim s in
  if s = "" then invalid_arg "Bigint.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= String.length s then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten9 = of_int 1_000_000_000 in
  let i = ref start in
  let len = String.length s in
  while !i < len do
    let chunk_len = min 9 (len - !i) in
    let chunk = String.sub s !i chunk_len in
    String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit") chunk;
    let scale = if chunk_len = 9 then ten9 else pow (of_int 10) chunk_len in
    acc := add (mul !acc scale) (of_int (int_of_string chunk));
    i := !i + chunk_len
  done;
  if negative then neg !acc else !acc

let to_string x =
  if is_zero x then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks mag acc =
      if Array.length mag = 0 then acc
      else begin
        let q, r = mag_divmod_small mag 1_000_000_000 in
        chunks q (r :: acc)
      end
    in
    (match chunks x.mag [] with
    | [] -> assert false
    | first :: rest ->
        if x.sign < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)
