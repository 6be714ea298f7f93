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
    ones whole-prefix appends spell, and only memory differs.  The table
    doubles as step 3's lookup of shorter equivalents. *)

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

(* Lookup/offset construction shared by the in-process enumeration and
   the on-disk table loader ([Tablegen.load]): feeding the same entry
   array through here yields a bit-identical [t], which is what makes
   "generated table round-trips to [build]" a checkable property rather
   than a hope.  Entries must already be sorted by [tcount]. *)
let of_entries ~max_t entries =
  Array.iteri
    (fun i e ->
      if i > 0 && entries.(i - 1).tcount > e.tcount then
        invalid_arg "Ma_table.of_entries: entries not sorted by tcount";
      if e.tcount > max_t then invalid_arg "Ma_table.of_entries: tcount exceeds max_t")
    entries;
  let lookup = Exact_u.Table.create (Array.length entries * 2) in
  Array.iteri
    (fun i e ->
      let key = Exact_u.canonical_key e.u in
      match Exact_u.Table.find_opt lookup key with
      | Some j ->
          let better =
            let a = entries.(j) in
            (e.tcount, e.ccount, List.length e.seq) < (a.tcount, a.ccount, List.length a.seq)
          in
          if better then Exact_u.Table.replace lookup key i
      | None -> Exact_u.Table.add lookup key i)
    entries;
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

let truncate table max_t =
  if max_t >= table.max_t then table
  else if max_t < 0 then invalid_arg "Ma_table.truncate: negative depth"
  else of_entries ~max_t (Array.sub table.entries 0 table.offsets.(max_t + 1))

(* Tables are expensive to build once max_t grows; share them.  The
   cache is consulted from planner worker domains, so it is mutex
   -guarded; holding the lock across [build] also means concurrent
   requests for the same depth build the table once, not N times. *)
let cache : (int, t) Hashtbl.t = Hashtbl.create 4
let cache_lock = Mutex.create ()

let get max_t =
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      match Hashtbl.find_opt cache max_t with
      | Some t -> t
      | None ->
          let t = build max_t in
          Hashtbl.add cache max_t t;
          t)

(* Provided-table registry: tables for non-built-in gate sets arrive
   from outside (generated offline, loaded from disk) and are keyed by
   gate-set name here so the synthesis stack can ask for "the table for
   gate set G at depth m" without knowing where G's table came from.
   Keeping the registry string-keyed in this module (rather than in
   [Gateset]) avoids a dependency cycle: [Gateset]/[Tablegen] sit above
   us and call [provide].  Per gate set we keep the deepest table seen
   plus memoized truncations, all under one lock shared with the
   in-process cache. *)
let builtin_gate_set = "cliffordt"
let provided : (string, t) Hashtbl.t = Hashtbl.create 4
let truncations : (string * int, t) Hashtbl.t = Hashtbl.create 8

let provide ~gate_set table =
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      (match Hashtbl.find_opt provided gate_set with
      | Some old when old.max_t > table.max_t -> ()
      | _ -> Hashtbl.replace provided gate_set table);
      let stale =
        Hashtbl.fold
          (fun ((gs, _) as k) _ acc -> if String.equal gs gate_set then k :: acc else acc)
          truncations []
      in
      List.iter (Hashtbl.remove truncations) stale)

let provided_sets () =
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      Hashtbl.fold (fun gs t acc -> (gs, t.max_t) :: acc) provided []
      |> List.sort compare)

let find_for ~gate_set max_t =
  let from_provided () =
    Mutex.lock cache_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock cache_lock)
      (fun () ->
        match Hashtbl.find_opt provided gate_set with
        | None -> None
        | Some t when t.max_t = max_t -> Some (Ok t)
        | Some t when t.max_t > max_t -> (
            match Hashtbl.find_opt truncations (gate_set, max_t) with
            | Some tr -> Some (Ok tr)
            | None ->
                let tr = truncate t max_t in
                Hashtbl.add truncations (gate_set, max_t) tr;
                Some (Ok tr))
        | Some t ->
            Some
              (Error
                 (Printf.sprintf
                    "table for gate set %S only reaches depth %d (need %d); regenerate it with \
                     tablegen at --max-t >= %d"
                    gate_set t.max_t max_t max_t)))
  in
  match from_provided () with
  | Some r -> r
  | None ->
      if String.equal gate_set builtin_gate_set then Ok (get max_t)
      else
        let known =
          match provided_sets () with
          | [] -> "none"
          | sets ->
              String.concat ", "
                (List.map (fun (gs, m) -> Printf.sprintf "%s (max_t=%d)" gs m) sets)
        in
        Error
          (Printf.sprintf
             "no table provided for gate set %S (provided: %s); generate one with tablegen and \
              load it with --load-table"
             gate_set known)

let get_for ~gate_set max_t =
  match find_for ~gate_set max_t with Ok t -> t | Error e -> failwith ("Ma_table.get_for: " ^ e)

let lookup_best table u =
  match Exact_u.Table.find_opt table.lookup (Exact_u.canonical_key u) with
  | Some i -> Some table.entries.(i)
  | None -> None

(* Entries with tcount in [lo, hi] as a sub-array view (copy). *)
let entries_in_range table ~lo ~hi =
  let hi = min hi table.max_t in
  Array.sub table.entries table.offsets.(lo) (table.offsets.(hi + 1) - table.offsets.(lo))

let size table = Array.length table.entries
