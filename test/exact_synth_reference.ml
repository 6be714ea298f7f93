(* The arbitrary-precision exact-synthesis search that [Exact_synth]'s
   native one on [Exact_u.t] replaced, kept as a test oracle: for every
   exactly unitary input both must return the same word, gate for gate.
   Same breadth-first search over residue-matched H·T^(−j) steps, on
   [Zomega.Big] entries with a visited set keyed by decimal strings. *)

module O = Zomega.Big

type exact_mat = { a : O.t; b : O.t; c : O.t; d : O.t; k : int }

let rec reduce m =
  if m.k = 0 then m
  else
    match (O.div_sqrt2_opt m.a, O.div_sqrt2_opt m.b, O.div_sqrt2_opt m.c, O.div_sqrt2_opt m.d) with
    | Some a, Some b, Some c, Some d -> reduce { a; b; c; d; k = m.k - 1 }
    | _ -> m

let make ~a ~b ~c ~d ~k = reduce { a; b; c; d; k }

(* Left-multiply by H·T^(−j): row2 ← ω^(−j)·row2, then Hadamard-mix rows
   (and one more √2 in the denominator). *)
let apply_h_tinv m j =
  let c' = O.mul_omega_pow m.c (-j) and d' = O.mul_omega_pow m.d (-j) in
  reduce { a = O.add m.a c'; b = O.add m.b d'; c = O.sub m.a c'; d = O.sub m.b d'; k = m.k + 1 }

let omega_exponent z =
  let rec go e = if e > 7 then None else if O.equal z (O.mul_omega_pow O.one e) then Some e else go (e + 1) in
  go 0

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

exception Not_unitary of string

let base_case m =
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

let matrix_key m =
  String.concat "," (List.map O.to_string [ m.a; m.b; m.c; m.d ]) ^ ";" ^ string_of_int m.k

let matched_js m =
  List.filter
    (fun j -> O.div_sqrt2_opt (O.sub m.a (O.mul_omega_pow m.c (-j))) <> None)
    [ 0; 1; 2; 3 ]

let reduce_once m =
  let start_k = m.k in
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  Queue.add (m, []) queue;
  Hashtbl.replace visited (matrix_key m) ();
  let result = ref None in
  let max_depth = 12 in
  while !result = None && not (Queue.is_empty queue) do
    let node, path = Queue.take queue in
    if List.length path < max_depth then
      List.iter
        (fun j ->
          if !result = None then begin
            let child = apply_h_tinv node j in
            if child.k < start_k then result := Some (List.rev (j :: path), child)
            else if child.k = start_k then begin
              let key = matrix_key child in
              if not (Hashtbl.mem visited key) then begin
                Hashtbl.replace visited key ();
                Queue.add (child, j :: path) queue
              end
            end
          end)
        (matched_js node)
  done;
  !result

let synthesize m =
  let rec go m acc =
    if m.k = 0 then List.rev_append acc (base_case m)
    else
      match reduce_once m with
      | None -> raise (Not_unitary "no H·T^(−j) path reduces the denominator")
      | Some (js, m') ->
          let acc =
            List.fold_left (fun acc j -> Ctgate.H :: List.rev_append (t_power_word j) acc) acc js
          in
          go m' acc
  in
  go m []

let synthesize_column ~w ~t ~n =
  synthesize (make ~a:w ~b:(O.neg (O.conj t)) ~c:t ~d:(O.conj w) ~k:n)

(* The same operator with arbitrary-precision entries. *)
let of_exact_u (u : Exact_u.t) =
  let big (z : Zomega.Native.t) =
    O.make (Bigint.of_int z.x0) (Bigint.of_int z.x1) (Bigint.of_int z.x2) (Bigint.of_int z.x3)
  in
  make ~a:(big u.a) ~b:(big u.b) ~c:(big u.c) ~d:(big u.d) ~k:u.k
