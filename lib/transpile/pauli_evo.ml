(** Pauli-evolution compiler (the RUSTIQ substitute): turns exp(−iθ/2·P)
    terms for multi-qubit Pauli strings P into CX ladders + basis
    changes + one Rz, with a greedy term ordering that maximizes shared
    ladder structure, then cancels the adjacent inverse fragments. *)

type pauli = I | X | Y | Z

type term = { paulis : pauli array; angle : float }

let pauli_of_char = function
  | 'I' -> I
  | 'X' -> X
  | 'Y' -> Y
  | 'Z' -> Z
  | c -> invalid_arg (Printf.sprintf "Pauli_evo.pauli_of_char: %c" c)

let term_of_string s angle = { paulis = Array.init (String.length s) (fun i -> pauli_of_char s.[i]); angle }

let support t =
  let out = ref [] in
  Array.iteri (fun q p -> if p <> I then out := q :: !out) t.paulis;
  List.rev !out

(* Gates conjugating P to Z on one qubit: V·P·V† = Z. *)
let basis_change q = function
  | X -> [ Circuit.instr Qgate.H [| q |] ]
  | Y -> [ Circuit.instr Qgate.Sdg [| q |]; Circuit.instr Qgate.H [| q |] ]
  | Z | I -> []

let basis_unchange q = function
  | X -> [ Circuit.instr Qgate.H [| q |] ]
  | Y -> [ Circuit.instr Qgate.H [| q |]; Circuit.instr Qgate.S [| q |] ]
  | Z | I -> []

(* One term: V, CX ladder onto the last support qubit, Rz, undo. *)
let term_instrs t =
  match support t with
  | [] -> []
  | sup ->
      let target = List.nth sup (List.length sup - 1) in
      let pre = List.concat_map (fun q -> basis_change q t.paulis.(q)) sup in
      let post = List.concat_map (fun q -> basis_unchange q t.paulis.(q)) (List.rev sup) in
      let ladder =
        List.filter_map
          (fun q -> if q = target then None else Some (Circuit.instr Qgate.CX [| q; target |]))
          sup
      in
      List.concat
        [ pre; ladder; [ Circuit.instr (Qgate.Rz t.angle) [| target |] ]; List.rev ladder; post ]

(* Hamming-style distance between supports: how much ladder/basis work a
   consecutive pair costs; used for the greedy ordering. *)
let term_distance a b =
  let n = max (Array.length a.paulis) (Array.length b.paulis) in
  let d = ref 0 in
  for q = 0 to n - 1 do
    let pa = if q < Array.length a.paulis then a.paulis.(q) else I in
    let pb = if q < Array.length b.paulis then b.paulis.(q) else I in
    if pa <> pb then incr d
  done;
  !d

(* Greedy nearest-neighbour ordering over terms. *)
let order_terms terms =
  match terms with
  | [] -> []
  | first :: rest ->
      let rec go current remaining acc =
        match remaining with
        | [] -> List.rev (current :: acc)
        | _ ->
            let best =
              List.fold_left
                (fun (bd, bt) t ->
                  let d = term_distance current t in
                  if d < bd then (d, Some t) else (bd, bt))
                (max_int, None) remaining
            in
            let t = Option.get (snd best) in
            go t (List.filter (fun x -> x != t) remaining) (current :: acc)
      in
      go first rest []

(* Compile a list of Pauli terms into a circuit on [n] qubits.  With
   [reorder] (default), terms are greedily reordered and adjacent
   inverse fragments cancelled — the RUSTIQ-flavoured optimization. *)
let compile ?(reorder = true) ~n terms =
  let terms = if reorder then order_terms terms else terms in
  let instrs = List.concat_map term_instrs terms in
  Commute.cancel_pairs (Circuit.make n instrs)

(* Trotterized evolution: [steps] repetitions with angle/steps each. *)
let trotter ~n ~steps terms =
  let scaled = List.map (fun t -> { t with angle = t.angle /. float_of_int steps }) terms in
  let one = compile ~n scaled in
  let instrs = List.concat (List.init steps (fun _ -> one.Circuit.instrs)) in
  { one with Circuit.instrs }
