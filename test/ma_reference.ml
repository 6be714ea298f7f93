(* The step-0 enumeration that [Ma_table.build] replaced, kept as a test
   oracle: every Matsumoto–Amano prefix as a (word, unitary) pair, level
   by level, each entry its prefix's word appended to its Clifford's
   word, its unitary the general product [Exact_u.mul] of the two, and
   its [mat] the float conversion through [Zomega.Native.to_complex] and
   a per-call [Float.pow].  Entries are records, as the table's were,
   with the lookup and offsets that [of_entries] built around them. *)

type entry = {
  seq : Ctgate.t list;  (** T-optimal word whose product is [u] up to phase *)
  u : Exact_u.t;
  mat : Mat2.t;
  tcount : int;
  ccount : int;  (** non-Pauli Clifford gates in [seq] *)
}

type table = {
  max_t : int;
  entries : entry array;  (** sorted by (tcount, index) *)
  lookup : int Exact_u.Table.t;  (** canonical key -> entry index *)
  offsets : int array;  (** offsets.(k) = first index with tcount >= k *)
}

(* Lookup/offset construction around entries sorted by [tcount] whose
   operators are distinct up to phase: each key is added once. *)
let of_entries ~max_t entries =
  Array.iteri
    (fun i e ->
      if i > 0 && entries.(i - 1).tcount > e.tcount then
        invalid_arg "Ma_reference.of_entries: entries not sorted by tcount";
      if e.tcount > max_t then invalid_arg "Ma_reference.of_entries: tcount exceeds max_t")
    entries;
  let lookup = Exact_u.Table.create (Array.length entries * 2) in
  Array.iteri (fun i e -> Exact_u.Table.add lookup (Exact_u.canonical_key e.u) i) entries;
  let offsets = Array.make (max_t + 2) 0 in
  let idx = ref 0 in
  for k = 0 to max_t + 1 do
    while !idx < Array.length entries && entries.(!idx).tcount < k do
      incr idx
    done;
    offsets.(k) <- !idx
  done;
  { max_t; entries; lookup; offsets }

(* All MA prefixes with exactly [k] T gates, as (word, unitary) pairs.
   Level 0 is the empty prefix; level 1 is {T, HT, SHT}; level k+1
   appends a syllable HT or SHT to every level-k prefix. *)
let prefixes_by_level max_t =
  let syllables = Ctgate.[ [ H; T ]; [ S; H; T ] ] in
  let apply (word, u) syl = (word @ syl, List.fold_left Exact_u.mul_gate u syl) in
  let levels = Array.make (max_t + 1) [] in
  levels.(0) <- [ ([], Exact_u.identity) ];
  if max_t >= 1 then
    levels.(1) <-
      ([ Ctgate.T ], Exact_u.gate_t) :: List.map (apply ([], Exact_u.identity)) syllables;
  for k = 2 to max_t do
    levels.(k) <-
      List.concat_map (fun prefix -> List.map (apply prefix) syllables) levels.(k - 1)
  done;
  levels

let to_mat2 (u : Exact_u.t) =
  let s = Float.pow (Float.sqrt 2.0) (float_of_int (-u.Exact_u.k)) in
  let conv z =
    let re, im = Zomega.Native.to_complex z in
    { Cplx.re = s *. re; im = s *. im }
  in
  Mat2.make (conv u.Exact_u.a) (conv u.Exact_u.b) (conv u.Exact_u.c) (conv u.Exact_u.d)

let build max_t =
  let levels = prefixes_by_level max_t in
  let buf = ref [] in
  let n = ref 0 in
  for k = 0 to max_t do
    List.iter
      (fun (word, u) ->
        Array.iter
          (fun (c : Clifford.element) ->
            let seq = word @ c.Clifford.word in
            let full = Exact_u.mul u c.Clifford.u in
            let entry =
              {
                seq;
                u = full;
                mat = to_mat2 full;
                tcount = k;
                ccount = Ctgate.clifford_count seq;
              }
            in
            buf := entry :: !buf;
            incr n)
          Clifford.elements)
      levels.(k)
  done;
  let entries = Array.of_list (List.rev !buf) in
  assert (Array.length entries = Ma_table.theoretical_count max_t);
  of_entries ~max_t entries
