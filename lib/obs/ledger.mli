(** Per-rotation provenance ledger.

    Every rotation that exits the synthesis stack appends one structured
    {!record} — canonical target, requested and achieved ε, the backend
    that won, fallback depth, T-count, word length, verification
    distance, wall time, degraded flag — as one line of a JSONL file
    ([tgates-ledger/v1]).  There is no in-memory copy: readers
    {!load} the file.  The ledger is the accounting substrate for the
    T-count/accuracy trade-off claims: post-mortem traces say where time
    went; the ledger says what quality each rotation actually achieved.

    Writers: every record is built by [Synth.ledger_record], so its
    field rules live in one place.  [Synth.run_chain] appends one
    {e fresh} record per chain execution (success or failure) or one
    [store] record per store hit; the compilation engine appends a
    {e cached} replay record for every rotation occurrence served by
    dedup or the memo, and the server one for every batch element folded
    into another element's job (under the element's own request id),
    success or failure; the TRASYN and GRIDSYNTH CLIs record their
    direct backend call as a one-rung chain.  A server rotation retried
    after a transient failure gets one record, for the execution whose
    outcome it was answered with.  So every entry point writes exactly
    one record per nontrivial rotation served, including degraded and
    failed ones; a trivial rotation (a ≤1-T operator answered with its
    exact word) runs no chain and gets none.

    Armed by {!to_file} (the CLIs' [--ledger FILE] flag) or the
    [TGATES_LEDGER] env var: the ledger is on exactly while a sink is
    open.  When off, {!record} costs one atomic load.  The sink is an
    [Obs.Jsonl] slot, so records from any domain land as whole lines,
    and {!load} reads the file back through [Obs.Jsonl.fold]. *)

val schema : string
(** ["tgates-ledger/v1"] *)

type record = {
  target : string;  (** canonical target id, e.g. ["rz(0.3700000000)"] *)
  gate_set : string;
      (** alphabet the word was synthesized over (["cliffordt"] for the
          built-in stack; loaders default pre-gateset ledgers to it) *)
  chain : string;  (** chain id (or backend name for direct CLI calls) *)
  eps_req : float;  (** requested ε *)
  rung_eps : float;  (** ε of the winning rung ([nan] on failure) *)
  distance : float;  (** guard-verified operator distance ([nan] on failure) *)
  backend : string;  (** winning backend, or ["failed"] *)
  fallbacks : int;
      (** rungs exhausted before the winner; on failure, the rungs run
          before the last one *)
  attempts : int;
      (** rungs run, winner included: 0 for a store hit, and for a
          failure the rungs its execution actually ran (0 when the
          deadline expired before the first).  A replay carries the
          counts of the execution it replays. *)
  t_count : int;
  word_len : int;
  wall_s : float;  (** synthesis wall time; [0.] for cached replays *)
  degraded : bool;
      (** fallback taken or distance above requested ε (a best-effort
          request, ε = 0, is never above it) *)
  cached : bool;  (** replay of a deduplicated / memoized execution *)
  source : string;
      (** where the word came from: ["fresh"] (a chain execution),
          ["replay"] (planner dedup / memo cache), or ["store"] (served
          from the persistent store).  Loaders default pre-source
          ledgers from [cached]. *)
  ok : bool;
  failure : string option;  (** failure tag when [not ok] *)
  request_id : string;
      (** originating server request ([Obs.request_ctx.request_id]);
          [""] outside a server.  Producers may leave it [""] — {!record}
          stamps the ambient [Obs.current_request] context when set.
          Emitted in JSONL only when non-empty, so CLI-produced ledgers
          are unchanged. *)
}

(** {1 Producer side} *)

val enabled : unit -> bool
(** A sink is open. *)

val to_file : string -> unit
(** Open [path] as the JSONL sink, write the meta line, and turn the
    ledger on.  Replaces any previously open sink; the sink is flushed
    and closed [at_exit]. *)

val path : unit -> string option

val record : record -> unit
(** Write one JSONL line to the sink.  No-op when no sink is open.
    Increments ["obs.ledger.records"]. *)

val close : unit -> unit
(** Flush and close the sink, turning the ledger off.  Idempotent;
    no-op when no sink is open. *)

(** {1 Consumer side} *)

val record_to_json : record -> Obs.Json.t

val load : string -> (record list, string) result
(** Parse a ledger JSONL file: meta line checked against {!schema}, one
    record per ["rotation"] event.  Errors read ["PATH: line N: ..."]
    or ["PATH: no tgates-ledger/v1 meta line"]. *)

type backend_stats = {
  bs_backend : string;
  bs_gate_set : string;
  bs_records : int;
  bs_cached : int;
  bs_degraded : int;
  bs_failed : int;
  bs_t_sum : int;
  bs_t_mean : float;  (** mean T-count per record; [nan] when empty *)
  bs_dist_mean : float;  (** mean verified distance over ok records; [nan] when none *)
  bs_len_mean : float;  (** mean word length; [nan] when empty *)
}

val stats : record list -> backend_stats list
(** Per-(gate set, backend) aggregates, sorted.  Records are
    re-sorted on a wall-time-free key before folding, so float
    accumulations are independent of arrival order — the aggregate is
    bit-identical across [--jobs 1] and [--jobs N] runs of the same
    workload. *)

val render_stats : Format.formatter -> record list -> unit
(** Human-readable per-backend table plus totals.  Wall-time figures
    are confined to lines starting with ["wall"], so deterministic
    comparisons can filter them out. *)
