(** Step 0 of TRASYN: the table of all Clifford+T operators (up to global
    phase) with at most a given number of T gates, each paired with a
    T-optimal gate sequence.

    Instead of the paper's enumerate-and-deduplicate sweep (O(4^#T) with
    trace-value duplicate checks on a GPU), we enumerate Matsumoto–Amano
    normal forms
        [ε | T] (HT | SHT)* C,   C one of the 24 Cliffords,
    which are in bijection with Clifford+T operators mod phase, so the
    enumeration is linear in the output count 24·(3·2^#T − 2), and the
    sequences produced are T-optimal by construction.  Words share
    suffixes: a word with k T gates is its first block (T, HT or SHT)
    consed onto the word of the (k−1)-T entry with the same Clifford, so
    each entry allocates at most three list cells; the words are the
    ones whole-prefix appends spell, and only memory differs.  A gate
    set whose descriptor asks for [Bfs] gets its table from a generic
    closure instead ([closure]); [get_for] enumerates either on first
    use.  The table doubles as step 3's lookup of shorter
    equivalents. *)

type entry = {
  seq : Ctgate.t list;  (** T-optimal word whose product is [u] up to phase *)
  u : Exact_u.t;
  mat : Mat2.t;
  tcount : int;
  ccount : int;  (** non-Pauli Clifford gates in [seq] *)
}

type t = {
  max_t : int;
  entries : entry array;  (** sorted by (tcount, index) *)
  lookup : int Exact_u.Table.t;  (** canonical key -> entry index *)
  offsets : int array;  (** offsets.(k) = first index with tcount >= k *)
}

let theoretical_count m = 24 * ((3 * (1 lsl m)) - 2)

(* Lookup/offset construction around the normal forms of [build]
   (the closure below builds its own as it goes).  The normal forms are
   unique, so each key is added once.  Entries must already be sorted
   by [tcount]. *)
let of_entries ~max_t entries =
  Array.iteri
    (fun i e ->
      if i > 0 && entries.(i - 1).tcount > e.tcount then
        invalid_arg "Ma_table.of_entries: entries not sorted by tcount";
      if e.tcount > max_t then invalid_arg "Ma_table.of_entries: tcount exceeds max_t")
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

(* The first block of a normal form by root index: T, HT, SHT.  Blocks
   1 and 2 are also the syllables HT and SHT that follow it. *)
let blocks = Ctgate.[| [ T ]; [ H; T ]; [ S; H; T ] |]

(* Entry (k, p, c), the level-k prefix p times Clifford c, sits at
   offsets.(k) + 24·p + c.  Level-k prefix p is its root block
   p lsr (k − 1) followed by one syllable per lower bit, most
   significant first, so the rest of its word with the same Clifford is
   an entry of level k − 1: the Clifford's own word at k = 1, else the
   prefix whose root is the syllable of bit k − 2 and whose lower bits
   are p's.  The level-(k − 1) prefixes not rooted at T are the
   contiguous range from 2^(k − 2), so that prefix is 2^(k − 2) plus
   p's low k − 1 bits.  Each word is its block consed onto that
   entry's word, its Clifford count the block's plus that entry's, and
   its exact unitary the prefix's product times the Clifford's word,
   gate by gate. *)
let build max_t =
  if max_t < 0 then invalid_arg "Ma_table.build: negative depth";
  Obs.span "cliffordt.table.build" @@ fun () ->
  Obs.set_span_attr "max_t" (string_of_int max_t);
  let entry ~seq ~u ~tcount ~ccount = { seq; u; mat = Exact_u.to_mat2 u; tcount; ccount } in
  let level0 =
    Array.map
      (fun (c : Clifford.element) ->
        let seq = c.Clifford.word in
        entry ~seq ~u:c.Clifford.u ~tcount:0 ~ccount:(Ctgate.clifford_count seq))
      Clifford.elements
  in
  let entries = Array.make (theoretical_count max_t) level0.(0) in
  Array.blit level0 0 entries 0 Clifford.count;
  (* The prefix products of the level below. *)
  let below = ref [| Exact_u.identity |] in
  for k = 1 to max_t do
    let base = theoretical_count (k - 1) in
    let tail_base = if k = 1 then 0 else theoretical_count (k - 2) in
    let products =
      Array.init (3 lsl (k - 1)) (fun p ->
          if k = 1 then Exact_u.of_seq blocks.(p)
          else List.fold_left Exact_u.mul_gate !below.(p lsr 1) blocks.(1 + (p land 1)))
    in
    Array.iteri
      (fun p prefix ->
        let block = blocks.(p lsr (k - 1)) in
        let block_ccount = Ctgate.clifford_count block in
        let tail = if k = 1 then 0 else (1 lsl (k - 2)) + (p land ((1 lsl (k - 1)) - 1)) in
        Array.iteri
          (fun c (cl : Clifford.element) ->
            let rest = entries.(tail_base + (Clifford.count * tail) + c) in
            entries.(base + (Clifford.count * p) + c) <-
              entry
                ~seq:(block @ rest.seq)
                ~u:(List.fold_left Exact_u.mul_gate prefix cl.Clifford.word)
                ~tcount:k
                ~ccount:(block_ccount + rest.ccount))
          Clifford.elements)
      products;
    below := products
  done;
  of_entries ~max_t entries

(* The generic closure, for any sub-alphabet of Clifford+T: Dijkstra
   with the non-Clifford count as the distance.  Level 0 is the Clifford
   closure of the identity; level k + 1 seeds every level-k operator,
   in order, with each non-Clifford generator and re-closes under the
   Cliffords, first in first out.  The state space at depth m is finite,
   so this terminates, and level order makes every word
   non-Clifford-minimal.  Operators are admitted in table order, so the
   lookup doubles as the visited set: an operator's index is the number
   admitted before it.  A candidate costs one gate product, one
   canonical key and one probe; only an admitted operator gets a word,
   its parent's reversed word with the new gate consed on, and the
   entries reverse each word once. *)
let closure (gs : Gateset.t) max_t =
  if max_t < 0 then invalid_arg "Ma_table.get_for: negative depth";
  Obs.span "cliffordt.table.build" @@ fun () ->
  Obs.set_span_attr "max_t" (string_of_int max_t);
  let cliffords, non_cliffords = List.partition Ctgate.is_clifford gs.Gateset.generators in
  let lookup = Exact_u.Table.create (theoretical_count max_t) in
  let levels = Array.make (max_t + 1) [] in
  let q = Queue.create () in
  let out = ref [] in
  let admit key node =
    Exact_u.Table.add lookup key (Exact_u.Table.length lookup);
    out := node :: !out;
    Queue.add node q
  in
  let step (rev, u) g =
    let u = Exact_u.mul_gate u g in
    let key = Exact_u.canonical_key u in
    if not (Exact_u.Table.mem lookup key) then admit key (g :: rev, u)
  in
  (* Close the level's seeds under the Cliffords and file what was
     admitted, in order, as level k. *)
  let close_level k =
    while not (Queue.is_empty q) do
      List.iter (step (Queue.pop q)) cliffords
    done;
    levels.(k) <- List.rev !out;
    out := []
  in
  admit (Exact_u.canonical_key Exact_u.identity) ([], Exact_u.identity);
  close_level 0;
  for k = 1 to max_t do
    List.iter (fun node -> List.iter (step node) non_cliffords) levels.(k - 1);
    close_level k
  done;
  let entry k (rev, u) =
    let seq = List.rev rev in
    { seq; u; mat = Exact_u.to_mat2 u; tcount = k; ccount = Ctgate.clifford_count seq }
  in
  let entries =
    Array.of_list (List.concat (List.mapi (fun k l -> List.map (entry k) l) (Array.to_list levels)))
  in
  let offsets = Array.make (max_t + 2) 0 in
  Array.iteri (fun k l -> offsets.(k + 1) <- offsets.(k) + List.length l) levels;
  if Gateset.full gs && Array.length entries <> theoretical_count max_t then
    failwith
      (Printf.sprintf
         "Ma_table.get_for: gate set %S at max_t=%d enumerated %d operators, closed form says %d"
         gs.Gateset.name max_t (Array.length entries) (theoretical_count max_t));
  { max_t; entries; lookup; offsets }

(* One table per gate set and depth, enumerated on first use as the
   gate set's descriptor says.  The cache is consulted from planner
   worker domains, so it is mutex-guarded; holding the lock across the
   enumeration also means concurrent requests for the same table build
   it once, not N times. *)
let cache : (string * int, t) Hashtbl.t = Hashtbl.create 4
let cache_lock = Mutex.create ()

let enumerate ~gate_set max_t =
  match Gateset.find gate_set with
  | None ->
      failwith
        (Printf.sprintf "Ma_table.get_for: unknown gate set %S (known: %s)" gate_set
           (String.concat ", " (Gateset.names ())))
  | Some gs -> (
      match gs.Gateset.enumeration with
      | Gateset.Ma_normal_form -> build max_t
      | Gateset.Bfs -> closure gs max_t)

let get_for ~gate_set max_t =
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      match Hashtbl.find_opt cache (gate_set, max_t) with
      | Some t -> t
      | None ->
          let t = enumerate ~gate_set max_t in
          Hashtbl.add cache (gate_set, max_t) t;
          t)

let get max_t = get_for ~gate_set:Gateset.default.Gateset.name max_t

let lookup_best table u =
  match Exact_u.Table.find_opt table.lookup (Exact_u.canonical_key u) with
  | Some i -> Some table.entries.(i)
  | None -> None

(* Entries with tcount in [lo, hi] as a sub-array view (copy). *)
let entries_in_range table ~lo ~hi =
  let hi = min hi table.max_t in
  Array.sub table.entries table.offsets.(lo) (table.offsets.(hi + 1) - table.offsets.(lo))

let size table = Array.length table.entries
