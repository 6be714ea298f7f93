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

(* Only the first MPS site depends on the target; the canonicalized
   interior is a pure function of (gate set, table_t, per-site T caps).
   [to_error] hammers the same few keys: it escalates through growing
   prefixes of one budget list and reseeds each prefix.  Caching the
   canonicalized chain turns every repeat into "fill one site + absorb
   one 4×4 boundary factor".

   The cache is shared across domains (the Planner calls [synthesize]
   concurrently), hence the mutex; cached interiors are read-only after
   publication, so handing the same chain to several domains is safe.
   The chain is computed while holding the lock — concurrent requests
   for the same key then dedup instead of racing.  FIFO eviction keeps
   at most [chain_capacity] chains alive (a chain at table_t = 10 is a
   few MB of bank + site floats). *)

let c_chain_hit = Obs.counter "mps.chain_cache.hit"
let c_chain_miss = Obs.counter "mps.chain_cache.miss"
let c_chain_evict = Obs.counter "mps.chain_cache.evictions"

type chain_key = string * int * int list

type chain_entry = {
  chain : Mps.chain;
  (* Reseed memo: [to_error]'s reseeded attempts, and a chain's retry
     rung, re-instantiate the same target; one slot catches that without
     keying the cache by target.  Comparison is bitwise — [=] on floats
     would equate 0.0 with -0.0 and diverge on NaN payloads, breaking
     the bit-identity guarantee. *)
  mutable last_target : Mat2.t option;
  mutable last_mps : Mps.t option;
}

let chain_capacity = 16
let chain_cache : (chain_key, chain_entry) Hashtbl.t = Hashtbl.create chain_capacity
let chain_order : chain_key Queue.t = Queue.create ()
let chain_lock = Mutex.create ()

let clear_chain_cache () =
  Mutex.lock chain_lock;
  Hashtbl.reset chain_cache;
  Queue.clear chain_order;
  Mutex.unlock chain_lock

let cplx_bits_equal (a : Cplx.t) (b : Cplx.t) =
  Int64.bits_of_float a.Cplx.re = Int64.bits_of_float b.Cplx.re
  && Int64.bits_of_float a.Cplx.im = Int64.bits_of_float b.Cplx.im

let mat2_bits_equal (a : Mat2.t) (b : Mat2.t) =
  cplx_bits_equal a.Mat2.m00 b.Mat2.m00
  && cplx_bits_equal a.Mat2.m01 b.Mat2.m01
  && cplx_bits_equal a.Mat2.m10 b.Mat2.m10
  && cplx_bits_equal a.Mat2.m11 b.Mat2.m11

(* A ready-to-sample MPS for the target, from the cached chain of the
   caps, which have been validated and clamped to the table depth.  A
   cached chain samples bit-identically to a fresh one (gated in
   runtest). *)
let mps_for config table ~target caps =
  let key = (config.gate_set, config.table_t, caps) in
  let with_lock f =
    Mutex.lock chain_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock chain_lock) f
  in
  let entry =
    match with_lock (fun () -> Hashtbl.find_opt chain_cache key) with
    | Some e ->
        Obs.incr c_chain_hit;
        e
    | None ->
        (* Build the chain outside the lock: the LQ sweep in
           [canonical_chain] is the expensive part, and holding the
           mutex across it would serialize every concurrent miss.
           Double-check before inserting — another domain may have
           built the same chain meanwhile; its entry wins so the
           reseed memo stays unique per key. *)
        Obs.incr c_chain_miss;
        let fresh =
          {
            chain = Mps.canonical_chain table (Array.of_list caps);
            last_target = None;
            last_mps = None;
          }
        in
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
  in
  (* The reseed memo mutates the shared entry; keep it under the
     lock so concurrent instantiations of different targets on the
     same chain never tear the (target, mps) pair. *)
  with_lock (fun () ->
      match (entry.last_mps, entry.last_target) with
      | Some m, Some t when mat2_bits_equal t target -> m
      | _ ->
          let m = Mps.instantiate ~target entry.chain in
          entry.last_target <- Some target;
          entry.last_mps <- Some m;
          m)

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

(* [epsilon] switches the selection rule from Eq. (3) (minimize error)
   to Eq. (4) (among solutions meeting the threshold, minimize T).
   [t_slack] relaxes Eq. (4): once the minimal T count is known, any
   solution within [t_slack] extra T gates may be picked for its lower
   error — a cheap hedge against error accumulation at circuit level. *)
let synthesize ?(config = default_config) ?epsilon ?(t_slack = 0) ~target ~budgets () =
  if budgets = [] then invalid_arg "Trasyn.synthesize: empty budget list";
  if List.exists (fun b -> b < 0) budgets then invalid_arg "Trasyn.synthesize: negative budget";
  Obs.span "trasyn.synthesize" @@ fun () ->
  Obs.incr c_attempts;
  let table = Ma_table.get_for ~gate_set:config.gate_set config.table_t in
  let mps = mps_for config table ~target (List.map (fun b -> min b config.table_t) budgets) in
  let rng = Random.State.make [| config.seed |] in
  let sampled = Mps.sample ~rng mps ~k:config.samples in
  let beamed = if config.beam > 0 then Mps.beam_search mps ~beam:config.beam else [] in
  (* Rank all samples by the mode's objective using quantities that are
     free from the contraction: the amplitude gives the distance, the
     table gives a T-count bound.  Only the best few get the (exact)
     post-processing treatment. *)
  let free_stats (s : Mps.sample) =
    let tv = Cplx.norm s.Mps.amplitude /. 2.0 in
    let dist = Float.sqrt (Float.max 0.0 (1.0 -. (tv *. tv))) in
    let t_est = ref 0 in
    Array.iter (fun phys -> t_est := !t_est + Ma_table.tcount table phys) s.Mps.indices;
    (dist, !t_est)
  in
  let free_key =
    match epsilon with
    | None -> fun (dist, t_est) -> (0, dist, float_of_int t_est)
    | Some eps ->
        fun (dist, t_est) ->
          if dist <= eps then (0, float_of_int t_est, dist) else (1, dist, float_of_int t_est)
  in
  (* Decorate-sort-undecorate: each sample's stats are a fold over every
     site, so compute them once per sample, not once per comparison.
     The comparison is typed because it runs ≈ 10^4 times per call, and
     polymorphic [compare] on the tuples cost over twice as much. *)
  let by_key ((ta, xa, ya), _) ((tb, xb, yb), _) =
    let c = Int.compare ta tb in
    if c <> 0 then c
    else
      let c = Float.compare xa xb in
      if c <> 0 then c else Float.compare ya yb
  in
  let scored =
    List.map (fun s -> (free_key (free_stats s), s)) (sampled @ beamed)
    |> List.stable_sort by_key |> List.map snd
  in
  let top = List.filteri (fun i _ -> i < 16) scored in
  let l = Array.length mps.Mps.sites in
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
              if config.post_process then
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
  if budgets = [] then invalid_arg "Trasyn.to_error: empty budget list";
  if List.exists (fun b -> b < 0) budgets then invalid_arg "Trasyn.to_error: negative budget";
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
            Obs.incr c_escalations;
            go (sites + 1) 0 best
          end
    end
  in
  Option.get (go 1 0 None)
