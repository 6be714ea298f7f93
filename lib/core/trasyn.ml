(** TRASYN: tensor-network guided synthesis of arbitrary single-qubit
    unitaries over Clifford+T (the paper's core contribution).

    [synthesize] solves Eq. (3): minimize distance subject to a T
    budget, expressed as a list of per-site T-count caps.  [to_error]
    wraps it in Algorithm 1's outer loop to solve Eq. (4): meet an error
    threshold with increasing budgets. *)

type config = {
  table_t : int;  (** step-0 table depth (max T per site); paper: 10 *)
  samples : int;  (** k, number of sampled sequences; paper: 40000 *)
  beam : int;  (** extra deterministic beam width, 0 to disable *)
  post_process : bool;  (** run step 3 *)
  seed : int;
  gate_set : string;  (** which step-0 table ([Ma_table.get_for]) to sample *)
}

let default_config =
  {
    table_t = 8;
    samples = 1024;
    beam = 32;
    post_process = true;
    seed = 0x7a51;
    gate_set = "cliffordt";
  }

(* Observability handles (interned once; see lib/obs). *)
let c_attempts = Obs.counter "trasyn.attempts"
let c_escalations = Obs.counter "trasyn.budget_escalations"
let h_tcount = Obs.histogram ~buckets:(Array.init 33 (fun i -> float_of_int (4 * i))) "trasyn.t_count"
let c_memo_hits = Obs.counter "trasyn.postprocess.memo_hits"

(* ------------------------------------------------------------------ *)
(* Chain cache                                                         *)
(* ------------------------------------------------------------------ *)

(* Only the first MPS site depends on the target, and [Mps.sample]
   reads it from the table's planes: a chain is a pure function of
   (gate set, table_t, per-site T caps).  [to_error] hammers the same
   few keys: it escalates through growing prefixes of one budget list
   and reseeds each prefix, so caching the canonicalized chain leaves
   every repeat with site 0's two passes and the sampling.

   The cache is shared across domains (the Planner calls [synthesize]
   concurrently), hence the mutex, held only to look up, insert and
   evict: nothing that depends on the target runs under it.  A miss
   builds its chain outside the lock, so concurrent misses do not
   serialize; when two domains build the same key, the first insert
   wins and the other's chain is dropped.  Chains are read-only once
   built, so handing one to several domains is safe.  FIFO eviction
   keeps at most [chain_capacity] chains alive.  A one-site chain holds
   no site; a last site holds 64·n bytes of floats and a middle site
   256·n, so at depth 10 (n = 73,680) 4.7 MB and 18.9 MB. *)

let c_chain_hit = Obs.counter "mps.chain_cache.hit"
let c_chain_miss = Obs.counter "mps.chain_cache.miss"
let c_chain_evict = Obs.counter "mps.chain_cache.evictions"

type chain_key = string * int * int list

let chain_capacity = 16
let chain_cache : (chain_key, Mps.chain) Hashtbl.t = Hashtbl.create chain_capacity
let chain_order : chain_key Queue.t = Queue.create ()
let chain_lock = Mutex.create ()

let with_lock f =
  Mutex.lock chain_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock chain_lock) f

let clear_chain_cache () =
  with_lock (fun () ->
      Hashtbl.reset chain_cache;
      Queue.clear chain_order)

(* The chain of the caps, which have been validated and clamped to the
   table depth.  A cached chain samples bit-identically to a fresh one
   (gated in runtest). *)
let chain_for config table caps =
  let key = (config.gate_set, config.table_t, caps) in
  match with_lock (fun () -> Hashtbl.find_opt chain_cache key) with
  | Some chain ->
      Obs.incr c_chain_hit;
      chain
  | None ->
      Obs.incr c_chain_miss;
      let fresh = Mps.canonical_chain table (Array.of_list caps) in
      with_lock (fun () ->
          match Hashtbl.find_opt chain_cache key with
          | Some winner -> winner
          | None ->
              if Hashtbl.length chain_cache >= chain_capacity then begin
                let oldest = Queue.pop chain_order in
                Hashtbl.remove chain_cache oldest;
                Obs.incr c_chain_evict
              end;
              Hashtbl.replace chain_cache key fresh;
              Queue.push key chain_order;
              fresh)

type result = {
  seq : Ctgate.t list;
  distance : float;
  t_count : int;
  clifford_count : int;
  trace_value : float;
  sites : int;
  samples_used : int;
}

let result_of_seq ~target ~sites ~samples seq =
  let m = Ctgate.seq_to_mat2 seq in
  let tv = Mat2.trace_value target m in
  {
    seq;
    distance = Mat2.distance target m;
    t_count = Ctgate.t_count seq;
    clifford_count = Ctgate.clifford_count seq;
    trace_value = tv;
    sites;
    samples_used = samples;
  }

(* Concatenate the per-site words of one sampled index tuple — a
   right-to-left fold over the index array, no intermediate lists. *)
let seq_of_sample table (s : Mps.sample) =
  let indices = s.Mps.indices in
  let rec go i acc = if i < 0 then acc else go (i - 1) (Ma_table.word table indices.(i) @ acc) in
  go (Array.length indices - 1) []

(* The first [n] items of the stable order by the three floats [key]
   writes for each (compared lexicographically with [Float.compare]),
   by bounded insertion: an item enters when the kept list has room or
   it precedes the kept last, right after every kept item it does not
   precede, so ties keep their input order.  Keys live in one float
   array, so an item that does not enter allocates nothing. *)
let stable_top n ~key items =
  match items with
  | [] -> []
  | _ when n <= 0 -> []
  | first :: _ ->
      let kept = Array.make n first and keys = Array.make (3 * n) 0.0 and k = Array.make 3 0.0 in
      let precedes p =
        let c = Float.compare k.(0) keys.(3 * p) in
        c < 0
        || c = 0
           &&
           let c = Float.compare k.(1) keys.((3 * p) + 1) in
           c < 0 || (c = 0 && Float.compare k.(2) keys.((3 * p) + 2) < 0)
      in
      let len = ref 0 in
      List.iter
        (fun x ->
          key x k;
          if !len < n || precedes (n - 1) then begin
            let p = ref (Int.min !len (n - 1)) in
            while !p > 0 && precedes (!p - 1) do
              kept.(!p) <- kept.(!p - 1);
              Array.blit keys (3 * (!p - 1)) keys (3 * !p) 3;
              decr p
            done;
            kept.(!p) <- x;
            Array.blit k 0 keys (3 * !p) 3;
            if !len < n then incr len
          end)
        items;
      Array.to_list (Array.sub kept 0 !len)

(* [refuse] is not a local closure over [fn]: the check runs on every
   call and allocates nothing. *)
let refuse fn msg = invalid_arg (fn ^ ": " ^ msg)

let check_settings ~fn config budgets =
  if budgets = [] then refuse fn "empty budget list";
  if List.exists (fun b -> b < 0) budgets then refuse fn "negative budget";
  if config.samples < 1 then refuse fn "samples below 1";
  if config.beam < 0 then refuse fn "negative beam"

(* [epsilon] switches the selection rule from Eq. (3) (minimize error)
   to Eq. (4) (among solutions meeting the threshold, minimize T).
   [t_slack] relaxes Eq. (4): once the minimal T count is known, any
   solution within [t_slack] extra T gates may be picked for its lower
   error — a cheap hedge against error accumulation at circuit level. *)
let synthesize ?(config = default_config) ?epsilon ?(t_slack = 0) ~target ~budgets () =
  check_settings ~fn:"Trasyn.synthesize" config budgets;
  Obs.span "trasyn.synthesize" @@ fun () ->
  Obs.incr c_attempts;
  let table = Ma_table.get_for ~gate_set:config.gate_set config.table_t in
  let rng = Random.State.make [| config.seed |] in
  let caps = List.map (fun b -> min b config.table_t) budgets in
  let l = List.length caps in
  let sampled, beamed =
    Mps.sample ~rng (chain_for config table caps) ~target ~k:config.samples ~beam:config.beam
  in
  (* Rank all samples by the mode's objective using quantities that are
     free from the contraction: the amplitude gives the distance, the
     table gives a T-count bound.  Only the best few are scored exactly
     (and, on several sites, post-processed).  The key is (0, dist, T)
     for Eq. (3); for Eq. (4), (0, T, dist) within ε and (1, dist, T)
     outside it. *)
  let free_key (s : Mps.sample) k =
    let tv = Cplx.norm s.Mps.amplitude /. 2.0 in
    let dist = Float.sqrt (Float.max 0.0 (1.0 -. (tv *. tv))) in
    let t_est = ref 0 in
    for i = 0 to Array.length s.Mps.indices - 1 do
      t_est := !t_est + Ma_table.tcount table s.Mps.indices.(i)
    done;
    let t_est = float_of_int !t_est in
    match epsilon with
    | None ->
        k.(0) <- 0.0;
        k.(1) <- dist;
        k.(2) <- t_est
    | Some eps when dist <= eps ->
        k.(0) <- 0.0;
        k.(1) <- t_est;
        k.(2) <- dist
    | Some _ ->
        k.(0) <- 1.0;
        k.(1) <- dist;
        k.(2) <- t_est
  in
  let top = stable_top 16 ~key:free_key (sampled @ beamed) in
  (* A one-site candidate is one table entry's word, and step 3 rewrites
     no table word (test_gateset checks every entry of the built-in
     tables), so only multi-site candidates are post-processed. *)
  let post_process = config.post_process && l > 1 in
  (* The beam re-finds sampled tuples, so candidate words repeat: each
     distinct word is post-processed and scored once. *)
  let seen = Hashtbl.create 16 and memo_hits = ref 0 in
  let candidates =
    List.map
      (fun s ->
        let seq = seq_of_sample table s in
        match Hashtbl.find_opt seen seq with
        | Some r ->
            incr memo_hits;
            r
        | None ->
            let out =
              if post_process then
                Obs.span "trasyn.postprocess" (fun () -> Postprocess.run table seq)
              else seq
            in
            let r = result_of_seq ~target ~sites:l ~samples:config.samples out in
            Hashtbl.add seen seq r;
            r)
      top
  in
  Obs.incr ~by:!memo_hits c_memo_hits;
  let order =
    match epsilon with
    | None ->
        fun a b ->
          compare (a.distance, a.t_count, a.clifford_count) (b.distance, b.t_count, b.clifford_count)
    | Some eps ->
        (* Meeting the threshold beats everything; then spend as few T
           (and Cliffords) as possible. *)
        let key r =
          if r.distance <= eps then (0, float_of_int r.t_count, float_of_int r.clifford_count, r.distance)
          else (1, r.distance, float_of_int r.t_count, float_of_int r.clifford_count)
        in
        fun a b -> compare (key a) (key b)
  in
  let chosen =
    match (List.sort order candidates, epsilon) with
    | [], _ -> failwith "Trasyn.synthesize: sampling produced no candidates"
    | best :: rest, Some eps when t_slack > 0 && best.distance <= eps ->
        List.fold_left
          (fun acc r ->
            if r.distance <= eps && r.t_count <= best.t_count + t_slack && r.distance < acc.distance
            then r
            else acc)
          best rest
    | best :: _, _ -> best
  in
  Obs.observe h_tcount (float_of_int chosen.t_count);
  chosen

(* Algorithm 1: try growing prefixes of the budget list (and [attempts]
   seeds per prefix) until the error threshold is met; always return the
   best solution seen.

   [selection] picks what "best" means once the threshold is reachable:
   - [`Best_error] (default, the paper's Algorithm 1): keep lowering the
     error within the first sufficient budget — "the algorithm
     prioritizes lowering the error within a T budget and reports the
     best solution instead of solutions closer to the thresholds".
   - [`Min_t]: a strict Eq. (4) reading — among solutions meeting the
     threshold, spend as few T gates as possible. *)
let to_error ?(config = default_config) ?(attempts = 2) ?(selection = `Best_error) ?(t_slack = 0)
    ~target ~budgets ~epsilon () =
  check_settings ~fn:"Trasyn.to_error" config budgets;
  let n = List.length budgets in
  let better (a : result) (b : result) =
    let key x =
      match selection with
      | `Best_error -> (0.0, x.distance, float_of_int x.t_count)
      | `Min_t ->
          if x.distance <= epsilon then (0.0, float_of_int x.t_count, x.distance)
          else (1.0, x.distance, float_of_int x.t_count)
    in
    if key a <= key b then a else b
  in
  let eps_for_synth = match selection with `Min_t -> Some epsilon | `Best_error -> None in
  let rec go sites attempt best =
    if sites > n then best
    else begin
      let prefix = List.filteri (fun i _ -> i < sites) budgets in
      let cfg = { config with seed = config.seed + (attempt * 7919) + sites } in
      let r = synthesize ~config:cfg ?epsilon:eps_for_synth ~t_slack ~target ~budgets:prefix () in
      let best = match best with Some b -> Some (better b r) | None -> Some r in
      match best with
      | Some b when b.distance <= epsilon -> best
      | _ ->
          if attempt + 1 < attempts then go sites (attempt + 1) best
          else begin
            (* Past the last prefix there is nothing to escalate to. *)
            if sites < n then Obs.incr c_escalations;
            go (sites + 1) 0 best
          end
    end
  in
  Option.get (go 1 0 None)
