(** Exact synthesis of Clifford+T unitaries over D[ω]
    (Kliuchnikov–Maslov–Mosca column reduction), on {!Exact_u.t}.

    Input: an exact unitary (1/√2^k)·[[a,b],[c,d]] with entries in Z[ω]
    on native ints.  While k > 0 there is a row operation H·T^(−j),
    j ∈ {0,1,2,3}, that lowers k; we search for it and emit T^j·H on
    the output word.  At k = 0 the matrix is a permutation-phase matrix
    handled directly.  The resulting word reproduces the input up to a
    global phase (a power of ω). *)

module O = Zomega.Native

exception Not_unitary of string

(* ω^e as a single complex phase: is this entry ω^e? *)
let omega_exponent z =
  let rec go e = if e > 7 then None else if O.equal z (Exact_u.rot e O.one) then Some e else go (e + 1) in
  go 0

(* Word for T^e (e mod 8) using free Pauli Z and counted S/T. *)
let t_power_word e =
  let e = ((e mod 8) + 8) mod 8 in
  let z = e / 4 and rest = e mod 4 in
  let s = rest / 2 and t = rest mod 2 in
  List.concat
    [
      (if z = 1 then [ Ctgate.Z ] else []);
      (if s = 1 then [ Ctgate.S ] else []);
      (if t = 1 then [ Ctgate.T ] else []);
    ]

(* Base case k = 0: the matrix is either diagonal or antidiagonal with
   ω-power entries.  Returns the word (up to global phase). *)
let base_case (m : Exact_u.t) =
  if O.is_zero m.b && O.is_zero m.c then begin
    match (omega_exponent m.a, omega_exponent m.d) with
    | Some ea, Some ed -> t_power_word (ed - ea)
    | _ -> raise (Not_unitary "diagonal entries are not phases")
  end
  else if O.is_zero m.a && O.is_zero m.d then begin
    match (omega_exponent m.b, omega_exponent m.c) with
    | Some eb, Some ec -> Ctgate.X :: t_power_word (eb - ec)
    | _ -> raise (Not_unitary "antidiagonal entries are not phases")
  end
  else raise (Not_unitary "k = 0 but matrix is not a phased permutation")

(* A single H·T^(−j) step can leave the denominator exponent unchanged
   (the exponent drops roughly once per two syllables of the
   Matsumoto–Amano normal form), so a greedy "must decrease now" loop
   deadlocks.  We instead search over residue-matched j choices with a
   bounded lookahead until the exponent strictly drops. *)

(* j values for which √2 divides a − ω^(−j)·c, i.e. a ≡ ω^(−j) c (mod √2);
   only these can avoid increasing the exponent. *)
let matched_js (m : Exact_u.t) =
  List.filter
    (fun j -> Exact_u.sqrt2_divides (Exact_u.zsub m.a (Exact_u.rot (-j) m.c)))
    [ 0; 1; 2; 3 ]

(* Find a short word of H·T^(−j) steps that strictly lowers m.k,
   breadth first, j in the order 0..3.  Every node kept has k = m.k and
   is reduced, so its {!Exact_u.key} is equal exactly when the matrices
   are.  Returns (j list, resulting matrix). *)
let reduce_once (m : Exact_u.t) =
  let start_k = m.k in
  let visited = Exact_u.Table.create 64 in
  let queue = Queue.create () in
  Queue.add (m, []) queue;
  Exact_u.Table.replace visited (Exact_u.key m) ();
  let result = ref None in
  let max_depth = 12 in
  while !result = None && not (Queue.is_empty queue) do
    let node, path = Queue.take queue in
    if List.length path < max_depth then
      List.iter
        (fun j ->
          if !result = None then begin
            let child = Exact_u.h_tinv node j in
            if child.k < start_k then result := Some (List.rev (j :: path), child)
            else if child.k = start_k then begin
              let key = Exact_u.key child in
              if not (Exact_u.Table.mem visited key) then begin
                Exact_u.Table.replace visited key ();
                Queue.add (child, j :: path) queue
              end
            end
          end)
        (matched_js node)
  done;
  !result

(* Synthesize the word for [m]; the word's product equals [m] up to ω^g. *)
let synthesize m =
  let rec go (m : Exact_u.t) acc =
    if m.k = 0 then List.rev_append acc (base_case m)
    else
      match reduce_once m with
      | None -> raise (Not_unitary "no H·T^(−j) path reduces the denominator")
      | Some (js, m') ->
          (* m = T^(j1)·H · T^(j2)·H · ... · m' *)
          let acc =
            List.fold_left
              (fun acc j -> Ctgate.H :: List.rev_append (t_power_word j) acc)
              acc js
          in
          go m' acc
  in
  go m []

(* Why native ints suffice.  For x = x0 + x1·ω + x2·ω² + x3·ω³ ∈ Z[ω],
   x0² + x1² + x2² + x3² = (|x|² + |x•|²)/2, where x• is the
   √2-conjugate.  An exactly unitary (1/√2^k)·[[a,b],[c,d]] has a unitary
   √2-conjugate too, so every entry and its conjugate have modulus at
   most √2^k, and every coefficient satisfies |x_i| ≤ 2^(k/2).  The
   search keeps only unitaries with k ≤ n, and builds each from one of
   them by a turn (which permutes and negates coefficients), one
   addition or subtraction (≤ 2^(n/2+1)) and halvings whose numerators
   add two such coefficients (≤ 2^(n/2+2)).  So no intermediate exceeds
   2^(n/2+2), which stays below max_int = 2^62 − 1 while n/2 + 2 ≤ 61. *)
let max_n = 118

(* [x] as a native int, given |x| ≤ 2^(n/2), i.e. x² ≤ 2^n. *)
let native ~n x =
  if Bigint.compare (Bigint.mul x x) (Bigint.shift_left Bigint.one n) > 0 then
    raise
      (Not_unitary
         (Printf.sprintf "coefficient %s exceeds 2^(n/2) at n = %d" (Bigint.to_string x) n));
  Bigint.to_int_exn x

(* Build the unitary [[w, −t†], [t, w†]]/√2^n used by gridsynth
   (orthonormal by w†w + t†t = 2^n) and synthesize it. *)
let synthesize_column ~w ~t ~n =
  if n > max_n then
    raise
      (Not_unitary
         (Printf.sprintf "n = %d exceeds %d: coefficients up to 2^(n/2+2) overflow a native int" n
            max_n));
  let conv (z : Zomega.Big.t) = O.make (native ~n z.x0) (native ~n z.x1) (native ~n z.x2) (native ~n z.x3) in
  let w = conv w and t = conv t in
  synthesize (Exact_u.make ~a:w ~b:(O.neg (O.conj t)) ~c:t ~d:(O.conj w) ~k:n)
