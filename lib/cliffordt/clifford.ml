(** The 24 single-qubit Clifford operators modulo global phase, each with
    a cheapest generating word (cost = number of non-Pauli gates, then
    word length; Pauli gates are free in the error-corrected setting). *)

type element = { index : int; u : Exact_u.t; word : Ctgate.t list }

let generators = Ctgate.[ H; S; Sdg; X; Y; Z ]

let cost word =
  let nonpauli = List.length (List.filter (fun g -> not (Ctgate.is_pauli g)) word) in
  (nonpauli, List.length word)

(* Dijkstra-style closure over the (tiny) Clifford group. *)
let elements : element array =
  let table : (Ctgate.t list * Exact_u.t) Exact_u.Table.t = Exact_u.Table.create 64 in
  Exact_u.Table.replace table (Exact_u.canonical_key Exact_u.identity) ([], Exact_u.identity);
  let changed = ref true in
  while !changed do
    changed := false;
    let current = Exact_u.Table.fold (fun _ v acc -> v :: acc) table [] in
    List.iter
      (fun (word, u) ->
        List.iter
          (fun g ->
            let u' = Exact_u.mul_gate u g in
            let word' = word @ [ g ] in
            let k = Exact_u.canonical_key u' in
            match Exact_u.Table.find_opt table k with
            | Some (existing, _) when cost existing <= cost word' -> ()
            | _ ->
                Exact_u.Table.replace table k (word', u');
                changed := true)
          generators)
      current
  done;
  let all = Exact_u.Table.fold (fun _ (word, u) acc -> (word, u) :: acc) table [] in
  assert (List.length all = 24);
  let sorted = List.sort (fun (w1, _) (w2, _) -> compare (cost w1, w1) (cost w2, w2)) all in
  Array.of_list (List.mapi (fun index (word, u) -> { index; u; word }) sorted)

let count = Array.length elements
let find_up_to_phase u =
  let k = Exact_u.canonical_key u in
  let rec go i =
    if i >= count then None
    else if Exact_u.canonical_key elements.(i).u = k then Some elements.(i)
    else go (i + 1)
  in
  go 0

let is_clifford_up_to_phase u = find_up_to_phase u <> None
