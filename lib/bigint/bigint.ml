(* Signed arbitrary-precision integers: a native int below 2^61 in
   magnitude, sign and little-endian base-2^31 limbs at or above it.

   The limb base is chosen so that a limb product fits a 63-bit native
   int (31 + 31 = 62 bits), which keeps multiplication and Knuth's
   division algorithm D free of any double-word tricks.  The small bound
   is one bit short of the native range, so the sum or difference of two
   small values is a native int and [add] and [sub] need no overflow
   test. *)

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1
let small_limit = 1 lsl 61

type t = Small of int | Large of { sign : int; mag : int array }
(* Invariants: [Small v] iff |v| < 2^61, so each value has exactly one
   representation; in [Large], [sign] is -1 or 1 and [mag] has no
   leading (high) zero limb. *)

let zero = Small 0

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

(* sign · mag, small when it fits. *)
let make sign mag =
  let mag = mag_normalize mag in
  match Array.length mag with
  | 0 -> zero
  | 1 -> Small (sign * mag.(0))
  | 2 when mag.(1) < small_limit lsr limb_bits ->
      Small (sign * ((mag.(1) lsl limb_bits) lor mag.(0)))
  | _ -> Large { sign; mag }

let of_int n =
  if n > -small_limit && n < small_limit then Small n
  else if n = min_int then Large { sign = -1; mag = [| 0; 0; 1 |] }
  else
    let m = abs n in
    Large { sign = (if n < 0 then -1 else 1); mag = [| m land mask; m lsr limb_bits |] }

let one = Small 1
let two = Small 2
let minus_one = Small (-1)
let sign = function Small v -> if v > 0 then 1 else if v < 0 then -1 else 0 | Large l -> l.sign
let is_zero = function Small v -> v = 0 | Large _ -> false

(* The limbs of |x|: the limb path works on these alone. *)
let mag = function
  | Small v ->
      let m = abs v in
      if m = 0 then [||] else if m < base then [| m |] else [| m land mask; m lsr limb_bits |]
  | Large l -> l.mag

let to_int_opt = function
  | Small v -> Some v
  | Large { sign; mag = [| lo; hi |] } -> Some (sign * ((hi lsl limb_bits) lor lo))
  | Large { sign = -1; mag = [| 0; 0; 1 |] } -> Some min_int
  | Large _ -> None

let to_int_exn x =
  match to_int_opt x with Some n -> n | None -> failwith "Bigint.to_int_exn: overflow"

(* On a small value the limb sum rounded once (its high limb is below
   2^30, so scaling it by 2^31 is exact), as [float_of_int] does. *)
let to_float = function
  | Small v -> float_of_int v
  | Large l ->
      let acc = ref 0.0 in
      for i = Array.length l.mag - 1 downto 0 do
        acc := (!acc *. 2147483648.0) +. float_of_int l.mag.(i)
      done;
      float_of_int l.sign *. !acc

let compare a b =
  match (a, b) with
  | Small x, Small y -> Int.compare x y
  | Small _, Large l -> -l.sign
  | Large l, Small _ -> l.sign
  | Large l, Large m ->
      if l.sign <> m.sign then Int.compare l.sign m.sign
      else if l.sign > 0 then mag_compare l.mag m.mag
      else mag_compare m.mag l.mag

let equal a b =
  match (a, b) with
  | Small x, Small y -> x = y
  | Large l, Large m -> l.sign = m.sign && mag_compare l.mag m.mag = 0
  | _ -> false

let hash x =
  let h = ref (sign x + 17) in
  Array.iter (fun limb -> h := (!h * 1000003) lxor limb) (mag x);
  !h land max_int

let neg = function Small v -> Small (-v) | Large l -> Large { l with sign = -l.sign }
let abs x = if sign x < 0 then neg x else x

let add a b =
  match (a, b) with
  | Small x, Small y -> of_int (x + y)
  | _ ->
      let sa = sign a and sb = sign b in
      if sa = 0 then b
      else if sb = 0 then a
      else if sa = sb then make sa (mag_add (mag a) (mag b))
      else begin
        let ma = mag a and mb = mag b in
        let c = mag_compare ma mb in
        if c = 0 then zero else if c > 0 then make sa (mag_sub ma mb) else make sb (mag_sub mb ma)
      end

let sub a b = match (a, b) with Small x, Small y -> of_int (x - y) | _ -> add a (neg b)

(* A float product below 2^61 bounds the exact one below
   2^61 (1 − 2^-53)^-3 < 2^62, so the native product cannot overflow;
   [of_int] then picks its case. *)
let mul a b =
  match (a, b) with
  | Small x, Small y when Float.abs (float_of_int x *. float_of_int y) < 0x1p61 -> of_int (x * y)
  | _ ->
      let sa = sign a and sb = sign b in
      if sa = 0 || sb = 0 then zero else make (sa * sb) (mag_mul (mag a) (mag b))

let mul_int a n = mul a (of_int n)
let add_int a n = add a (of_int n)

let divmod a b =
  match (a, b) with
  | Small x, Small y -> (Small (x / y), Small (x mod y))
  | _ ->
      if is_zero b then raise Division_by_zero;
      let q, r = mag_divmod (mag a) (mag b) in
      (make (sign a * sign b) q, make (sign a) r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  match (a, b) with
  | Small x, Small y ->
      let q = x / y and r = x mod y in
      if r >= 0 then (Small q, Small r)
      else if y > 0 then (Small (q - 1), Small (r + y))
      else (Small (q + 1), Small (r - y))
  | _ ->
      let q, r = divmod a b in
      if sign r >= 0 then (q, r)
      else if sign b > 0 then (sub q one, add r b)
      else (add q one, sub r b)

let erem a b =
  match (a, b) with
  | Small x, Small y ->
      let r = x mod y in
      if r >= 0 then Small r else Small (r + Stdlib.abs y)
  | _ -> snd (ediv_rem a b)

let shift_left a s =
  match a with
  | Small x when s < 61 && Stdlib.abs x < small_limit asr s -> Small (x lsl s)
  | _ -> if s = 0 then a else make (sign a) (mag_shift_left (mag a) s)

(* Shifts the magnitude, so a negative value rounds toward zero. *)
let shift_right a s =
  match a with
  | Small x -> if s > 60 then zero else if x >= 0 then Small (x lsr s) else Small (-((-x) lsr s))
  | Large l -> if s = 0 then a else make l.sign (mag_shift_right l.mag s)

let num_bits x =
  let m = mag x in
  let l = Array.length m in
  if l = 0 then 0 else (l - 1) * limb_bits + (limb_bits - nlz31 m.(l - 1))

let is_even = function Small v -> v land 1 = 0 | Large l -> l.mag.(0) land 1 = 0

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
  if sign x < 0 then invalid_arg "Bigint.sqrt: negative";
  if is_zero x then zero
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
  if sign x < 0 then false
  else
    let r = sqrt x in
    equal (mul r r) x

let powmod b e m =
  if sign e < 0 then invalid_arg "Bigint.powmod: negative exponent";
  if sign m <= 0 then invalid_arg "Bigint.powmod: modulus must be positive";
  let b = ref (erem b m) and e = ref e and acc = ref one in
  while not (is_zero !e) do
    if not (is_even !e) then acc := erem (mul !acc !b) m;
    b := erem (mul !b !b) m;
    e := shift_right !e 1
  done;
  !acc

(* Limbs low to high, each uniform in [0, 2^31) except the top one,
   uniform in [0, top limb of the bound]; a draw at or above the bound
   is rejected.  Every value below the bound is one equally likely
   draw, and a draw is kept with probability at least 1/2. *)
let random_below bound =
  if sign bound <= 0 then invalid_arg "Bigint.random_below: bound must be positive";
  let m = mag bound in
  let l = Array.length m in
  let top = m.(l - 1) in
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
    (match chunks (mag x) [] with
    | [] -> assert false
    | first :: rest ->
        if sign x < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)
