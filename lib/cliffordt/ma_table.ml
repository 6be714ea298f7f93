(** Step 0 of TRASYN: the table of all Clifford+T operators (up to global
    phase) with at most a given number of T gates, each paired with a
    T-optimal gate sequence.

    Instead of the paper's enumerate-and-deduplicate sweep (O(4^#T) with
    trace-value duplicate checks on a GPU), we enumerate Matsumoto–Amano
    normal forms
        [ε | T] (HT | SHT)* C,   C one of the 24 Cliffords,
    which are in bijection with Clifford+T operators mod phase, so the
    enumeration is linear in the output count 24·(3·2^#T − 2), and the
    sequences produced are T-optimal by construction.  The table doubles
    as step 3's lookup of shorter equivalents. *)

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
                mat = Exact_u.to_mat2 full;
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
  assert (Array.length entries = theoretical_count max_t);
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
