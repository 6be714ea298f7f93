(** The compilation engine: resolve → key → dedup → synthesize on
    the [Planner] pool → splice back in order, with bounded memory end
    to end.

    The producer (calling domain) pulls IR gates from a source,
    resolves each rotation, and submits unique synthesis targets to the
    pool.  Results are emitted strictly in input order from a
    depth-bounded reorder FIFO, interleaved with reading the source;
    every queued job belongs to an occurrence waiting in that FIFO, so
    its bound is the bound on work in flight too.  Whenever the
    producer would otherwise block — on a full FIFO whose head has not
    landed, during the final drain — the pool has it run a queued job
    itself, so a run at [jobs] n synthesizes on up to n domains.

    Two sources feed it: {!run} passes the input through a
    {!Stream_opt} window first (the streaming CLI), {!run_ir} takes an
    already transpiled IR circuit as it stands (the whole-circuit
    workflows of [Pipeline]).

    Determinism: per-key synthesis is deterministic and occurrences are
    emitted in input order, so the output is byte-identical whatever
    the worker count — and identical to feeding the same input through
    {!run_circuit} in one batch, which is how the runtest bit-identity
    gate checks the streaming machinery. *)

let c_dedup = Obs.counter "obs.planner.dedup_hits"
let c_in = Obs.counter "obs.stream.gates_in"
let c_out = Obs.counter "obs.stream.gates_out"
let c_evictions = Obs.counter "pipeline.cache.evictions"
let c_degraded = Obs.counter "pipeline.rotation.degraded"
let h_rot_tcount = Obs.histogram ~buckets:(Array.init 41 (fun i -> float_of_int (4 * i))) "pipeline.rotation.t_count"
let g_heap_peak = Obs.gauge "obs.heap.peak_words"

(* Memo hits and misses are counted under the workflow's name, chosen
   by IR, whichever entry point ran. *)
let gridsynth_memo = (Obs.counter "pipeline.gridsynth_cache.hit", Obs.counter "pipeline.gridsynth_cache.miss")
let trasyn_memo = (Obs.counter "pipeline.trasyn_cache.hit", Obs.counter "pipeline.trasyn_cache.miss")
let memo_counters = function Settings.Rz_ir -> gridsynth_memo | Settings.U3_ir -> trasyn_memo

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)
(* ------------------------------------------------------------------ *)

(* [Basis.norm_angle] already wraps into (−π, π] and snaps π/4
   multiples, but leaves −0.0 alone — whose key ("rz(-0.0000…)")
   differs from 0.0's, a spurious cache/dedup miss.  Synthesis uses the
   same canonical angle as the key, so one job's word serves every
   occurrence that shares the key. *)
let canonical_angle a =
  let a = Basis.norm_angle a in
  if a = 0.0 then 0.0 else a

(* The angles print as [Store.target_id] prints them.  ε is printed
   exactly ("%h"): two thresholds that differ in the last bit must not
   share a word, or a hit could exceed the requested ε.  The gate set is
   in the key as well as the policy's tag: two alphabets can synthesize the
   same angle at the same ε to different words. *)
let rz_key ~epsilon ~tag ~gate_set theta =
  Printf.sprintf "%s@%h|%s|%s" (Store.target_id (Store.Rz (canonical_angle theta))) epsilon tag
    gate_set

let u3_key ~epsilon ~tag ~gate_set (theta, phi, lam) =
  let c = canonical_angle in
  Printf.sprintf "%s@%h|%s|%s" (Store.target_id (Store.U3 (c theta, c phi, c lam))) epsilon tag
    gate_set

(* A verified attempt as the engine splices it: its word's gates in time
   order with their count, T count and counted-Clifford count, taken
   once when the word enters the memo or the resolution table, so an
   occurrence adds three totals instead of classifying every gate it
   emits.  Clifford+T words are written in matrix order (leftmost factor
   applied last); circuit instruction lists run in time order, so
   splicing a word into a circuit reverses it. *)
type word = {
  attempt : Robust.attempt;
  gates : Qgate.t list;
  length : int;
  t : int;
  cliffords : int;
}

let word_of (attempt : Robust.attempt) =
  let rec go gates length t cliffords = function
    | [] -> { attempt; gates; length; t; cliffords }
    | c :: rest ->
        let g = Qgate.of_ctgate c in
        go (g :: gates) (length + 1)
          (if Qgate.is_t g then t + 1 else t)
          (if Qgate.is_counted_clifford g then cliffords + 1 else cliffords)
          rest
  in
  go [] 0 0 0 attempt.Robust.word

(* ------------------------------------------------------------------ *)
(* Configuration, the policy and resolution                           *)
(* ------------------------------------------------------------------ *)

type config = {
  epsilon : float;
  gate_set : Gateset.t;
  ir : Settings.ir;
  window : int;  (** W: max gates held by the sliding optimizer *)
  jobs : int;  (** max domains (1 = synthesize on the producer) *)
  deadline : Obs.Deadline.t;
  rotation_budget : float option;
  chain : Synth.rung_spec list option;
  trasyn : Trasyn.config;
  budgets : int list;
}

let default_trasyn = { Trasyn.default_config with table_t = 10; samples = 48; beam = 4 }

(* The reorder FIFO's bound: past this many output slots awaiting
   emission, the producer stalls until the head result lands. *)
let depth = 4096

let config ?(epsilon = 0.07) ?(gate_set = Gateset.default) ?(ir = Settings.Rz_ir)
    ?(window = 64) ?(jobs = 1)
    ?(deadline = Obs.Deadline.none) ?rotation_budget ?chain ?(trasyn = default_trasyn)
    ?(budgets = Synth.default_budgets) () =
  if not (epsilon > 0.0 && Float.is_finite epsilon) then
    invalid_arg "Stream_compile.config: epsilon must be positive and finite";
  if window < 1 then invalid_arg "Stream_compile.config: window must be >= 1";
  if jobs < 1 then invalid_arg "Stream_compile.config: jobs must be >= 1";
  Trasyn.check_settings ~fn:"Stream_compile.config" trasyn budgets;
  { epsilon; gate_set; ir; window; jobs; deadline; rotation_budget; chain; trasyn; budgets }

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
  peak_heap_words : int;
}

type policy = { ir : Settings.ir; chain : Synth.rung_spec list; synth : Synth.config; tag : string }

(* The tag names the chain, the TRASYN settings and the budgets, not the
   deadline or the per-rotation budget: a word that a timeout degraded
   is memoized like any other. *)
let policy (cfg : config) =
  let chain =
    match (cfg.chain, cfg.ir) with
    | Some c, _ -> c
    | None, Settings.Rz_ir -> Synth.rz_chain ()
    | None, Settings.U3_ir -> Synth.u3_chain
  in
  let t = cfg.trasyn in
  {
    ir = cfg.ir;
    chain;
    synth =
      Synth.config ~gate_set:cfg.gate_set ~trasyn:t ~budgets:cfg.budgets ~epsilon:cfg.epsilon ();
    tag =
      Printf.sprintf "%s;t%d,k%d,b%d,%B,s%d;%s" (Synth.chain_id chain) t.Trasyn.table_t
        t.Trasyn.samples t.Trasyn.beam t.Trasyn.post_process t.Trasyn.seed
        (String.concat "," (List.map string_of_int cfg.budgets));
  }

type resolved = { key : string; target : Synth.target; exact : Robust.attempt option }

(* The Rz window rewrites every rotation to Rz, so any other rotation
   that needs synthesis in the Rz IR is a transpiler bug (or a hand-fed
   IR), surfaced structurally rather than as Invalid_argument. *)
let resolve policy g =
  let epsilon = policy.synth.Synth.epsilon and gate_set = Synth.gate_set_name policy.synth in
  let table = Ma_table.get_for ~gate_set 1 in
  let key, target =
    match g with
    | Qgate.Rz theta ->
        let theta = canonical_angle theta in
        (rz_key ~epsilon ~tag:policy.tag ~gate_set theta, Synth.Rz theta)
    | g ->
        let t, p, l = Mat2.to_u3_angles (Qgate.to_mat2 g) in
        let t = canonical_angle t and p = canonical_angle p and l = canonical_angle l in
        (u3_key ~epsilon ~tag:policy.tag ~gate_set (t, p, l), Synth.Unitary (Mat2.u3 t p l))
  in
  match (Circuit.exact_word table g, g, policy.ir) with
  | Some word, _, _ ->
      let distance = Mat2.distance (Synth.target_mat2 target) (Ctgate.seq_to_mat2 word) in
      let a = { Robust.word; distance; backend = "exact"; fallbacks = 0; rung_epsilon = epsilon } in
      Ok { key; target; exact = Some a }
  | None, (Qgate.Rx _ | Qgate.Ry _ | Qgate.U3 _), Settings.Rz_ir ->
      Error
        (Robust.Backend_error
           (Printf.sprintf "Stream_compile: non-Rz rotation %s in Rz IR" (Qgate.to_string g)))
  | None, _, _ -> Ok { key; target; exact = None }

(* One chain execution on this domain.  Its deadline is the run's,
   capped by the per-rotation budget from now, both on the monotonic
   clock. *)
let run_chain (cfg : config) p target =
  let deadline =
    match cfg.rotation_budget with
    | None -> cfg.deadline
    | Some b -> Obs.Deadline.earliest cfg.deadline (Obs.Deadline.after b)
  in
  Obs.span "pipeline.synthesize_rotation" (fun () ->
      Synth.run_chain ~deadline ~config:p.synth p.chain target)

(* ------------------------------------------------------------------ *)
(* The memo (bounded, flush-all)                                      *)
(* ------------------------------------------------------------------ *)

(* The one in-memory cache of synthesized words, keyed by {!rz_key} /
   {!u3_key}.  Past its capacity it is flushed wholesale (one eviction)
   rather than grown without limit: hits are dominated by repeats
   within one circuit.  Only verified successes enter it; failures are
   deadline-relative.  It is touched only on the producer, in emission
   order, and keeps each word already counted and spliced into gates
   (time order), so a hit costs no conversion. *)
let memo : (string, word) Hashtbl.t = Hashtbl.create 256
let memo_capacity = ref 65_536

(* Bumped whenever the memo is emptied: a key's entry stays the same
   word from its insertion until then, so a copy of it tagged with the
   generation it was read in is the memo's entry while the tags
   match. *)
let memo_generation = ref 0

let set_cache_capacity n =
  if n < 1 then invalid_arg "Stream_compile.set_cache_capacity: capacity must be positive";
  memo_capacity := n

let clear_cache () =
  Hashtbl.reset memo;
  incr memo_generation

let memo_add key (a : Robust.attempt) =
  let e = word_of a in
  Obs.observe h_rot_tcount (float_of_int e.t);
  if Hashtbl.length memo >= !memo_capacity then begin
    Obs.incr c_evictions;
    Hashtbl.reset memo;
    incr memo_generation
  end;
  Hashtbl.add memo key e;
  e

(* ------------------------------------------------------------------ *)
(* The per-run resolution table                                       *)
(* ------------------------------------------------------------------ *)

(* What a rotation resolves to in a run: the exact word of a trivial
   rotation, a synthesis key and target (with the gate, for the
   degradation report), or a structured failure.  A synthesis keeps the
   memo entry of its key once read, tagged with the memo generation, so
   the next occurrence does not hash the key again. *)
type pending = {
  key : string;
  target : Synth.target;
  gate : Qgate.t;
  mutable entry : word;  (** [no_word] until read *)
  mutable generation : int;
}

type resolution = Exact of word | Synthesize of pending | Reject of Robust.failure

(* What {!memo_find} answers for a key the memo does not hold. *)
let no_word = word_of { Robust.word = []; distance = nan; backend = ""; fallbacks = 0; rung_epsilon = nan }

(* The memo's entry for p's key, or [no_word]: p's copy while it is
   current, else a lookup, kept when it hits. *)
let memo_find p =
  if p.entry != no_word && p.generation = !memo_generation then p.entry
  else
    match Hashtbl.find memo p.key with
    | e ->
        p.entry <- e;
        p.generation <- !memo_generation;
        e
    | exception Not_found -> no_word

let memo_keep p e =
  p.entry <- e;
  p.generation <- !memo_generation;
  e

let synthesize cfg g =
  let p = policy cfg in
  match resolve p g with
  | Error _ as e -> e
  | Ok { exact = Some a; _ } -> Ok a
  | Ok r -> (
      let c_hit, c_miss = memo_counters cfg.ir in
      match Hashtbl.find_opt memo r.key with
      | Some e ->
          Obs.incr c_hit;
          Ok e.attempt
      | None ->
          Obs.incr c_miss;
          let res = run_chain cfg p r.target in
          Result.iter (fun a -> ignore (memo_add r.key a : word)) res;
          res)

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
(* The engine                                                         *)
(* ------------------------------------------------------------------ *)

(* Rotation slots of one key waiting in the reorder FIFO, whether the
   first of them — the occurrence that the fresh ledger record
   [Synth.run_chain] writes covers — is still to be emitted (every
   other occurrence gets a cached replay), and the key's job.  The
   job's result stays in its task until the key's last slot is served:
   an occurrence queued while the job ran falls back to it when the
   memo was flushed in between. *)
type waiting = {
  mutable slots : int;
  mutable fresh : bool;
  task : Robust.attempt Planner.task;
}

(* In-order output slots: a Direct gate, an exact word, a word the memo
   already held when the rotation was resolved, or a rotation awaiting
   its (possibly still running) synthesis. *)
type out_item =
  | Direct of Circuit.instr
  | Word of word * int array
  | Cached of word * pending * int array
  | Rotation of pending * int array * waiting

exception Abort_run

(* [Gc.quick_stat]'s heap size is updated by collections only: a run
   that has not collected yet reads 0 there, so one minor collection
   makes the sample. *)
let heap_sample () =
  let s = Gc.quick_stat () in
  let s =
    if s.Gc.heap_words > 0 then s
    else begin
      Gc.minor ();
      Gc.quick_stat ()
    end
  in
  Obs.max_gauge g_heap_peak (float_of_int s.Gc.heap_words)

(* [source handle] consumes one input instruction, handing [handle]
   every IR gate it releases, and returns [false] at the end of the
   input (after releasing whatever it still held). *)
let engine ?on_degraded cfg ~source ~emit : (stats, Robust.failure) result =
  let policy = policy cfg in
  let c_memo_hit, c_memo_miss = memo_counters cfg.ir in
  let pool = Planner.create ~jobs:cfg.jobs () in
  let job target () =
    let r = run_chain cfg policy target in
    Result.iter (fun a -> Obs.set_span_attr "backend" a.Robust.backend) r;
    r
  in
  (* Producer-side accounting (all refs touched only on this domain). *)
  let gates_in = ref 0 and gates_out = ref 0 in
  let t_count = ref 0 and cliffords = ref 0 in
  let nsynth = ref 0 and unique = ref 0 in
  let total_err = ref 0.0 and degraded = ref 0 in
  let failure = ref None in
  let out : out_item Queue.t = Queue.create () in
  let waiting : (string, waiting) Hashtbl.t = Hashtbl.create 64 in
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
  (* A word's gates act on the rotation's qubit, which the input
     checked, so each is a plain record. *)
  let rec splice gates qubits =
    match gates with
    | [] -> ()
    | g :: rest ->
        emit { Circuit.gate = g; qubits };
        splice rest qubits
  in
  let emit_word w qubits =
    splice w.gates qubits;
    gates_out := !gates_out + w.length;
    t_count := !t_count + w.t;
    cliffords := !cliffords + w.cliffords
  in
  (* Serve the head occurrence: its accounting, its replay record when
     no fresh record covers it, and its word. *)
  let serve ~replay (p : pending) ({ attempt = a; _ } as word) qubits =
    ignore (Queue.pop out);
    incr nsynth;
    total_err := !total_err +. a.Robust.distance;
    if Robust.degraded ~epsilon:cfg.epsilon a then begin
      incr degraded;
      Obs.incr c_degraded;
      Option.iter (fun f -> f p.gate a) on_degraded
    end;
    if replay && Ledger.enabled () then
      Ledger.record
        (Synth.ledger_record ~config:policy.synth policy.chain p.target ~source:`Replay ~wall_s:0.0
           (Ok a));
    emit_word word qubits;
    true
  in
  (* One occurrence of [key] is being served; after its last, the job's
     result is dropped. *)
  let release key w =
    w.slots <- w.slots - 1;
    if w.slots = 0 then Hashtbl.remove waiting key
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
    | Some (Word (w, qubits)) ->
        ignore (Queue.pop out);
        emit_word w qubits;
        true
    | Some (Cached (e, p, qubits)) -> serve ~replay:true p e qubits
    | Some (Rotation (p, qubits, w)) -> (
        match memo_find p with
        | e when e != no_word ->
            (* An earlier occurrence of this job was emitted first. *)
            release p.key w;
            serve ~replay:true p e qubits
        | _ -> (
            match Planner.result pool w.task with
            | Some (Ok a) ->
                let replay = not w.fresh in
                w.fresh <- false;
                release p.key w;
                serve ~replay p (memo_keep p (memo_add p.key a)) qubits
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
  (* The head's result has not landed: run a queued job here, or, with
     none queued, block until it lands. *)
  let wait_for_head () =
    drain_ready ();
    match Queue.peek_opt out with Some (Rotation (_, _, w)) -> Planner.help pool w.task | _ -> ()
  in
  let resolution g =
    match Gate_table.find resolved g with
    | r -> r
    | exception Not_found ->
        let r =
          match resolve policy g with
          | Ok { exact = Some a; _ } -> Exact (word_of a)
          | Ok { key; target; _ } -> Synthesize { key; target; gate = g; entry = no_word; generation = 0 }
          | Error f -> Reject f
        in
        if Gate_table.length resolved >= !memo_capacity then begin
          Obs.incr c_evictions;
          Gate_table.reset resolved
        end;
        Gate_table.add resolved g r;
        r
  in
  (* Resolve one IR gate and append its output slot. *)
  let handle (g : Circuit.instr) =
    if not (Qgate.is_rotation g.Circuit.gate) then Queue.push (Direct g) out
    else
      match resolution g.Circuit.gate with
      | Exact w -> Queue.push (Word (w, g.Circuit.qubits)) out
      | Reject f ->
          failure := Some f;
          raise Abort_run
      | Synthesize p -> (
          match memo_find p with
          | e when e != no_word ->
              Obs.incr c_memo_hit;
              Queue.push (Cached (e, p, g.Circuit.qubits)) out
          | _ ->
              let w =
                match Hashtbl.find_opt waiting p.key with
                | Some w ->
                    Obs.incr c_dedup;
                    w.slots <- w.slots + 1;
                    w
                | None ->
                    Obs.incr c_memo_miss;
                    incr unique;
                    let w = { slots = 1; fresh = true; task = Planner.submit pool (job p.target) } in
                    Hashtbl.add waiting p.key w;
                    w
              in
              Queue.push (Rotation (p, g.Circuit.qubits, w)) out)
  in
  Fun.protect ~finally:(fun () ->
      flush_counters ();
      Planner.finish pool)
  @@ fun () ->
  let body () =
    while source handle do
      incr gates_in;
      drain_ready ();
      while Queue.length out > depth && Option.is_none !failure do
        wait_for_head ();
        drain_ready ()
      done;
      if !gates_in land 1023 = 0 then begin
        heap_sample ();
        flush_counters ()
      end
    done;
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
          peak_heap_words = int_of_float (Obs.gauge_value g_heap_peak);
        }
  | exception Abort_run -> (
      match !failure with
      | Some f -> Error f
      | None -> Error (Robust.Backend_error "stream_compile: aborted without failure"))

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let run cfg ~next ~emit =
  Obs.span "pipeline.stream_compile" @@ fun () ->
  let window = Stream_opt.create ~window:cfg.window cfg.ir in
  let source handle =
    match next () with
    | Some instr ->
        Stream_opt.push window instr ~emit:handle;
        true
    | None ->
        Stream_opt.flush window ~emit:handle;
        false
  in
  engine cfg ~source ~emit

(* Feed a circuit's instructions to [drive] and collect what it emits. *)
let collect (c : Circuit.t) drive =
  let rem = ref c.Circuit.instrs in
  let next () =
    match !rem with
    | [] -> None
    | i :: tl ->
        rem := tl;
        Some i
  in
  let out = ref [] in
  match drive ~next ~emit:(fun i -> out := i :: !out) with
  | Ok st -> Ok (Circuit.make c.Circuit.n_qubits (List.rev !out), st)
  | Error f -> Error f

let run_circuit cfg c = collect c (run cfg)

let run_ir ?on_degraded cfg c =
  collect c (fun ~next ~emit ->
      let source handle =
        match next () with
        | Some instr ->
            handle instr;
            true
        | None -> false
      in
      engine ?on_degraded cfg ~source ~emit)

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
