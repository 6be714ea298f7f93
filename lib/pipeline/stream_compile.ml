(** Streaming compilation: parse → windowed optimize → synthesize →
    emit, all interleaved, with bounded memory end to end.

    The producer (calling domain) pulls instructions from [next], runs
    them through a {!Stream_opt} window, classifies what the window
    gives up, and feeds unique synthesis targets to a pool of worker
    domains over a *bounded* job queue — when the queue is full the
    producer blocks (backpressure), so parsing never outruns synthesis
    by more than the queue.  Results are emitted strictly in input
    order from a depth-bounded reorder FIFO, interleaved with parsing.

    Determinism: per-key synthesis is deterministic and occurrences are
    emitted in input order, so the output is byte-identical whatever
    the worker count — and identical to feeding the same input through
    {!run_circuit} in one batch, which is how the runtest bit-identity
    gate checks the streaming machinery. *)

let g_queue_depth = Obs.gauge "obs.planner.queue_depth"
let c_jobs = Obs.counter "obs.planner.jobs"
let c_dedup = Obs.counter "obs.planner.dedup_hits"
let c_bp_waits = Obs.counter "obs.stream.backpressure_waits"
let c_in = Obs.counter "obs.stream.gates_in"
let c_out = Obs.counter "obs.stream.gates_out"
let c_memo_hit = Obs.counter "pipeline.stream_cache.hit"
let c_memo_miss = Obs.counter "pipeline.stream_cache.miss"
let c_evictions = Obs.counter "pipeline.stream_cache.evictions"
let g_heap_peak = Obs.gauge "obs.heap.peak_words"

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type config = {
  epsilon : float;
  gate_set : Gateset.t;
  ir : Settings.ir;
  window : int;  (** W: max gates held by the sliding optimizer *)
  queue : int;  (** job-queue capacity — the backpressure bound *)
  depth : int;  (** max out-of-order results awaiting emission *)
  jobs : int;  (** total domains (1 = synthesize on the producer) *)
  deadline : Obs.Deadline.t;
  rotation_budget : float option;
  chain : Synth.rung_spec list option;
  trasyn : Trasyn.config;
  budgets : int list;
}

let default_trasyn = { Trasyn.default_config with table_t = 10; samples = 48; beam = 4 }

let config ?(epsilon = 0.07) ?(gate_set = Gateset.default) ?(ir = Settings.Rz_ir)
    ?(window = 64) ?(queue = 32) ?(depth = 4096) ?(jobs = 1)
    ?(deadline = Obs.Deadline.none) ?rotation_budget ?chain ?(trasyn = default_trasyn)
    ?(budgets = Synth.default_budgets) () =
  if window < 1 then invalid_arg "Stream_compile.config: window must be >= 1";
  if queue < 1 then invalid_arg "Stream_compile.config: queue must be >= 1";
  if depth < 1 then invalid_arg "Stream_compile.config: depth must be >= 1";
  if jobs < 1 then invalid_arg "Stream_compile.config: jobs must be >= 1";
  { epsilon; gate_set; ir; window; queue; depth; jobs; deadline; rotation_budget;
    chain; trasyn; budgets }

type stats = {
  gates_in : int;
  gates_out : int;
  t_count : int;
  clifford_count : int;
  rotations_synthesized : int;
  unique_syntheses : int;
  dedup_hits : int;
  total_synth_error : float;
  degraded : int;
  backpressure_waits : int;
  peak_heap_words : int;
}

(* ------------------------------------------------------------------ *)
(* Memo cache (bounded, flush-all — same policy as Pipeline's)        *)
(* ------------------------------------------------------------------ *)

(* A memoized synthesis keeps its word already spliced into gates (time
   order), so a hit costs no conversion. *)
type memo_entry = { attempt : Robust.attempt; gates : Qgate.t list }

let memo : (string, memo_entry) Hashtbl.t = Hashtbl.create 256
let memo_capacity = ref 65_536

let set_cache_capacity n =
  if n < 1 then invalid_arg "Stream_compile.set_cache_capacity: capacity must be positive";
  memo_capacity := n

let clear_cache () = Hashtbl.reset memo

let cache_put tbl key v =
  if Hashtbl.length tbl >= !memo_capacity then begin
    Obs.incr c_evictions;
    Hashtbl.reset tbl
  end;
  Hashtbl.add tbl key v

(* ------------------------------------------------------------------ *)
(* Per-run resolution table                                           *)
(* ------------------------------------------------------------------ *)

(* What a rotation the window gives up resolves to: the exact word of a
   trivial rotation, or a synthesis key and target. *)
type pending = { key : string; target : Synth.target }
type resolution = Exact of Qgate.t list | Synthesize of pending

(* Rotations repeat massively in QAOA-like streams, so each run caches
   its resolutions per distinct gate value.  Floats compare by their
   bits: two gates share an entry only when every angle is the same
   double, so the cached resolution is exactly what recomputing it
   would give. *)
module Gate_table = Hashtbl.Make (struct
  type t = Qgate.t

  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let equal g h =
    match (g, h) with
    | Qgate.Rx a, Qgate.Rx b | Qgate.Ry a, Qgate.Ry b | Qgate.Rz a, Qgate.Rz b -> same a b
    | Qgate.U3 (a, b, c), Qgate.U3 (a', b', c') -> same a a' && same b b' && same c c'
    | _ -> g = h

  let hash = Hashtbl.hash
end)

(* ------------------------------------------------------------------ *)
(* Bounded blocking job queue (the backpressure point)                *)
(* ------------------------------------------------------------------ *)

type 'a bq = {
  buf : 'a option array;
  mutable head : int;
  mutable count : int;
  lock : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  mutable closed : bool;
}

let bq_create n =
  { buf = Array.make n None; head = 0; count = 0; lock = Mutex.create ();
    not_full = Condition.create (); not_empty = Condition.create (); closed = false }

let bq_push q v waits =
  Mutex.lock q.lock;
  let waited = ref false in
  while q.count >= Array.length q.buf && not q.closed do
    if not !waited then begin
      waited := true;
      incr waits;
      Obs.incr c_bp_waits
    end;
    Condition.wait q.not_full q.lock
  done;
  if not q.closed then begin
    q.buf.((q.head + q.count) mod Array.length q.buf) <- Some v;
    q.count <- q.count + 1;
    Obs.set_gauge g_queue_depth (float_of_int q.count);
    Condition.signal q.not_empty
  end;
  Mutex.unlock q.lock

let bq_pop q =
  Mutex.lock q.lock;
  while q.count = 0 && not q.closed do
    Condition.wait q.not_empty q.lock
  done;
  let r =
    if q.count = 0 then None
    else begin
      let v = q.buf.(q.head) in
      q.buf.(q.head) <- None;
      q.head <- (q.head + 1) mod Array.length q.buf;
      q.count <- q.count - 1;
      Obs.set_gauge g_queue_depth (float_of_int q.count);
      Condition.signal q.not_full;
      v
    end
  in
  Mutex.unlock q.lock;
  r

let bq_close q =
  Mutex.lock q.lock;
  q.closed <- true;
  Condition.broadcast q.not_empty;
  Condition.broadcast q.not_full;
  Mutex.unlock q.lock

(* Same rationale as Planner: synthesis allocates heavily and minor GCs
   are stop-all-domains barriers, so multi-domain runs get a roomier
   minor heap (restored afterwards). *)
let worker_minor_heap_words = 4 * 1024 * 1024

let enlarge_minor_heap () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < worker_minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = worker_minor_heap_words };
  g

(* ------------------------------------------------------------------ *)
(* The engine                                                         *)
(* ------------------------------------------------------------------ *)

(* In-order output slots: a Direct gate, an exact word, a word the memo
   already held when the rotation was classified, or a rotation awaiting
   its (possibly still running) synthesis. *)
type out_item =
  | Direct of Circuit.instr
  | Word of Qgate.t list * int array
  | Cached of memo_entry * pending * int array
  | Rotation of pending * int array

exception Abort_run

let classify ~epsilon ~tag ~gs g =
  match g with
  | Qgate.Rz theta ->
      let theta = Pipeline.canonical_angle theta in
      { key = Pipeline.rz_key ~epsilon ~tag ~gate_set:gs theta; target = Synth.Rz theta }
  | _ ->
      let t, p, l = Mat2.to_u3_angles (Qgate.to_mat2 g) in
      let t = Pipeline.canonical_angle t
      and p = Pipeline.canonical_angle p
      and l = Pipeline.canonical_angle l in
      {
        key = Pipeline.u3_key ~epsilon ~tag ~gate_set:gs (t, p, l);
        target = Synth.Unitary (Mat2.u3 t p l);
      }

let heap_sample () =
  let s = Gc.quick_stat () in
  Obs.max_gauge g_heap_peak (float_of_int s.Gc.heap_words)

let run cfg ~next ~emit : (stats, Robust.failure) result =
  let chain =
    match cfg.chain with
    | Some c -> c
    | None -> (
        match cfg.ir with
        | Settings.Rz_ir -> Synth.rz_chain ()
        | Settings.U3_ir -> Synth.u3_chain)
  in
  let tag = Synth.chain_id chain in
  let gs = cfg.gate_set.Gateset.name in
  let scfg =
    Synth.config ~gate_set:cfg.gate_set ~trasyn:cfg.trasyn ~budgets:cfg.budgets
      ~epsilon:cfg.epsilon ()
  in
  let queue = bq_create cfg.queue in
  let results : (string, (Robust.attempt, Robust.failure) result) Hashtbl.t =
    Hashtbl.create 256
  in
  let results_lock = Mutex.create () in
  let result_ready = Condition.create () in
  let job_deadline () =
    match cfg.rotation_budget with
    | None -> cfg.deadline
    | Some b -> Obs.Deadline.earliest cfg.deadline (Obs.Deadline.after b)
  in
  let exec_target target =
    Obs.span "planner.job" (fun () ->
        match
          Obs.span "pipeline.synthesize_rotation" (fun () ->
              Synth.run_chain ~deadline:(job_deadline ()) ~config:scfg chain target)
        with
        | Ok a ->
            Obs.set_span_attr "backend" a.Robust.backend;
            Ok a
        | Error _ as e ->
            Obs.set_span_attr "backend" "failed";
            e
        | exception Robust.Failure_exn f ->
            Obs.set_span_attr "backend" "failed";
            Error f
        | exception e ->
            (* A worker domain must never die mid-stream. *)
            Obs.set_span_attr "backend" "failed";
            Error (Robust.Backend_error (Printexc.to_string e)))
  in
  let post key r =
    Mutex.lock results_lock;
    Hashtbl.replace results key r;
    Condition.broadcast result_ready;
    Mutex.unlock results_lock
  in
  let worker parent () =
    ignore (enlarge_minor_heap ());
    Obs.with_span_parent parent (fun () ->
        let rec loop () =
          match bq_pop queue with
          | None -> ()
          | Some (key, target) ->
              post key (exec_target target);
              loop ()
        in
        loop ())
  in
  (* Producer-side accounting (all refs touched only on this domain). *)
  let gates_in = ref 0 and gates_out = ref 0 in
  let t_count = ref 0 and cliffords = ref 0 in
  let nsynth = ref 0 and unique = ref 0 in
  let total_err = ref 0.0 and degraded = ref 0 in
  let waits = ref 0 in
  let failure = ref None in
  let out : out_item Queue.t = Queue.create () in
  (* Keys with a job posted whose first occurrence has not been emitted
     yet: that occurrence is covered by the fresh ledger record
     [Synth.run_chain] writes, every other one gets a cached replay. *)
  let inflight : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let resolved = Gate_table.create 256 in
  (* The gate counters are added in batches (every 1024 input gates and
     at exit) rather than by one atomic add per gate. *)
  let flushed_in = ref 0 and flushed_out = ref 0 in
  let flush_counters () =
    Obs.incr ~by:(!gates_in - !flushed_in) c_in;
    Obs.incr ~by:(!gates_out - !flushed_out) c_out;
    flushed_in := !gates_in;
    flushed_out := !gates_out
  in
  let emit_instr (i : Circuit.instr) =
    incr gates_out;
    if Qgate.is_t i.Circuit.gate then incr t_count
    else if Qgate.is_counted_clifford i.Circuit.gate then incr cliffords;
    emit i
  in
  let rec emit_word gates qubits =
    match gates with
    | [] -> ()
    | g :: rest ->
        emit_instr (Circuit.instr g qubits);
        emit_word rest qubits
  in
  let ledger_chain = Synth.chain_id chain in
  (* One occurrence served: its accounting, and its replay record when
     no fresh record covers it. *)
  let served ~replay (p : pending) (a : Robust.attempt) =
    incr nsynth;
    total_err := !total_err +. a.Robust.distance;
    if a.Robust.fallbacks > 0 || a.Robust.distance > cfg.epsilon then incr degraded;
    if replay && Ledger.enabled () then
      Ledger.record
        (Pipeline.replay_record ~chain:ledger_chain ~gate_set:gs ~requested:cfg.epsilon p.target a)
  in
  (* Emit the FIFO head if its result is available.  The memo is only
     ever touched on this domain, in input and emission order, so cache
     contents and evictions are independent of the worker count — part
     of the byte-identity guarantee. *)
  let try_resolve_head () =
    match Queue.peek_opt out with
    | None -> false
    | Some (Direct i) ->
        ignore (Queue.pop out);
        emit_instr i;
        true
    | Some (Word (gates, qubits)) ->
        ignore (Queue.pop out);
        emit_word gates qubits;
        true
    | Some (Cached (e, p, qubits)) ->
        ignore (Queue.pop out);
        served ~replay:true p e.attempt;
        emit_word e.gates qubits;
        true
    | Some (Rotation (p, qubits)) -> (
        match Hashtbl.find_opt memo p.key with
        | Some e ->
            (* An earlier occurrence of this job was emitted first. *)
            ignore (Queue.pop out);
            served ~replay:true p e.attempt;
            emit_word e.gates qubits;
            true
        | None -> (
            Mutex.lock results_lock;
            let r = Hashtbl.find_opt results p.key in
            Mutex.unlock results_lock;
            match r with
            | Some (Ok a) ->
                let e = { attempt = a; gates = Pipeline.word_to_gates a.Robust.word } in
                cache_put memo p.key e;
                let fresh = Hashtbl.mem inflight p.key in
                Hashtbl.remove inflight p.key;
                ignore (Queue.pop out);
                served ~replay:(not fresh) p a;
                emit_word e.gates qubits;
                true
            | Some (Error f) ->
                failure := Some f;
                false
            | None -> false))
  in
  let drain_ready () =
    while Option.is_none !failure && try_resolve_head () do
      ()
    done;
    if Option.is_some !failure then raise Abort_run
  in
  (* Block until the head's result lands (checked under the results
     lock so a completion between drain and wait cannot be missed). *)
  let wait_for_head () =
    drain_ready ();
    if Queue.length out > 0 then begin
      Mutex.lock results_lock;
      (match Queue.peek_opt out with
      | Some (Rotation (p, _))
        when (not (Hashtbl.mem results p.key)) && not (Hashtbl.mem memo p.key) ->
          Condition.wait result_ready results_lock
      | _ -> ());
      Mutex.unlock results_lock
    end
  in
  let resolve g =
    match Gate_table.find resolved g with
    | r -> r
    | exception Not_found ->
        let r =
          match Pipeline.exact_word_of_trivial ~gate_set:gs g with
          | Some word -> Exact (Pipeline.word_to_gates word)
          | None -> Synthesize (classify ~epsilon:cfg.epsilon ~tag ~gs g)
        in
        if Gate_table.length resolved >= !memo_capacity then begin
          Obs.incr c_evictions;
          Gate_table.reset resolved
        end;
        Gate_table.add resolved g r;
        r
  in
  (* Classify one gate the window gave up and append its output slot. *)
  let handle (g : Circuit.instr) =
    if not (Qgate.is_rotation g.Circuit.gate) then Queue.push (Direct g) out
    else
      match resolve g.Circuit.gate with
      | Exact gates -> Queue.push (Word (gates, g.Circuit.qubits)) out
      | Synthesize p -> (
          match Hashtbl.find_opt memo p.key with
          | Some e ->
              Obs.incr c_memo_hit;
              Queue.push (Cached (e, p, g.Circuit.qubits)) out
          | None ->
              if Hashtbl.mem inflight p.key then Obs.incr c_dedup
              else begin
                Obs.incr c_memo_miss;
                Obs.incr c_jobs;
                incr unique;
                Hashtbl.add inflight p.key ();
                if cfg.jobs <= 1 then post p.key (exec_target p.target)
                else bq_push queue (p.key, p.target) waits
              end;
              Queue.push (Rotation (p, g.Circuit.qubits)) out)
  in
  Obs.span "pipeline.stream_compile" @@ fun () ->
  let parent = Obs.current_span_id () in
  let saved_gc = if cfg.jobs > 1 then Some (enlarge_minor_heap ()) else None in
  let workers =
    if cfg.jobs > 1 then List.init (cfg.jobs - 1) (fun _ -> Domain.spawn (worker parent))
    else []
  in
  let joined = ref false in
  let shutdown () =
    if not !joined then begin
      joined := true;
      flush_counters ();
      bq_close queue;
      List.iter Domain.join workers;
      match saved_gc with Some g -> Gc.set g | None -> ()
    end
  in
  Fun.protect ~finally:shutdown @@ fun () ->
  let window = Stream_opt.create ~window:cfg.window cfg.ir in
  let body () =
    let rec pump () =
      match next () with
      | None -> ()
      | Some instr ->
          incr gates_in;
          Stream_opt.push window instr ~emit:handle;
          drain_ready ();
          (* Reorder-FIFO bound: past [depth] pending slots, stall the
             producer until the head result lands. *)
          while Queue.length out > cfg.depth && Option.is_none !failure do
            wait_for_head ();
            drain_ready ()
          done;
          if !gates_in land 1023 = 0 then begin
            heap_sample ();
            flush_counters ()
          end;
          pump ()
    in
    pump ();
    Stream_opt.flush window ~emit:handle;
    while Queue.length out > 0 do
      wait_for_head ();
      drain_ready ()
    done;
    heap_sample ()
  in
  match body () with
  | () ->
      Ok
        {
          gates_in = !gates_in;
          gates_out = !gates_out;
          t_count = !t_count;
          clifford_count = !cliffords;
          rotations_synthesized = !nsynth;
          unique_syntheses = !unique;
          dedup_hits = !nsynth - !unique;
          total_synth_error = !total_err;
          degraded = !degraded;
          backpressure_waits = !waits;
          peak_heap_words = int_of_float (Obs.gauge_value g_heap_peak);
        }
  | exception Abort_run -> (
      match !failure with
      | Some f -> Error f
      | None -> Error (Robust.Backend_error "stream_compile: aborted without failure"))

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let run_circuit cfg (c : Circuit.t) : (Circuit.t * stats, Robust.failure) result =
  let rem = ref c.Circuit.instrs in
  let next () =
    match !rem with
    | [] -> None
    | i :: tl ->
        rem := tl;
        Some i
  in
  let out = ref [] in
  match run cfg ~next ~emit:(fun i -> out := i :: !out) with
  | Ok st -> Ok (Circuit.make c.Circuit.n_qubits (List.rev !out), st)
  | Error f -> Error f

let run_qasm cfg reader ~on_qreg ~emit : (stats, Robust.failure) result =
  let next () =
    let rec go () =
      match Qasm_reader.next_event reader with
      | None -> None
      | Some (Qasm_reader.Qreg n) ->
          on_qreg n;
          go ()
      | Some (Qasm_reader.Instr i) -> Some i
    in
    go ()
  in
  run cfg ~next ~emit
