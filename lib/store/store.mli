(** Crash-safe, content-addressed, disk-backed store of synthesized
    Clifford+T sequences.

    Synthesized words are exact, canonical artifacts (Kliuchnikov–
    Maslov–Mosca): once a rotation has been synthesized and
    guard-verified, the word is worth persisting and re-serving across
    processes.  Entries are keyed by (gate set, canonical target,
    ε-bucket); lookups are ε-monotonic — a stored word whose verified
    distance d satisfies d ≤ ε is a valid hit for any request at ε.

    {b On-disk layout} (all under one store directory):

    {v
    dir/
      LOCK                  single-writer lock (Unix.lockf, auto-released
                            on process death — kill -9 leaves no stale lock)
      segments/seg-NNNNNN.log   append-only record frames
      quarantine/           segments moved aside by corruption recovery
      quarantine/rejected.jsonl  read-path re-verification forensics
    v}

    Each record is framed ["TGSR <len> <crc32>\n<payload>\n"], where
    [crc32] (IEEE, hex) covers the payload bytes, so a flipped bit on
    disk is detected before the payload is ever parsed.  The segments
    are the store's only on-disk state: every open rebuilds the
    in-memory index by scanning all of them.  A leftover [index.json]
    (the index snapshot older stores wrote) is ignored.

    {b Crash safety.}  Each append is written and flushed before the
    put returns, so nothing is pending at close or at a crash; a
    [kill -9] mid-append leaves a torn final frame that the next open's
    scan truncates away.

    {b Corruption.}  A frame whose CRC fails (or whose framing is
    unparseable before end-of-file) marks the segment corrupt: the
    original file is moved into [quarantine/], its intact records are
    rewritten into a fresh segment (atomic tmp+rename), and the corrupt
    records are dropped from the index — never served.  Read-path
    re-verification (through [Robust.verify]) additionally recomputes
    every served word's unitary against the {e requested} target, so
    even a CRC-valid record whose word does not achieve its claimed
    distance turns into a miss plus a quarantine record, never a wrong
    circuit.  Such a record stays in its segment; every later open reads
    [quarantine/rejected.jsonl] and leaves each record it names out of
    the index, counted in [records_quarantined].

    {b Fault injection.}  Appends consult [Robust.Fault] under the rung
    name ["store.append"], keyed by the entry's gate set and target
    (modes [torn], [corrupt], [enospc]), making crash recovery
    deterministically testable via [TGATES_FAULTS].

    {b Graceful degradation.}  An append failure (real or injected
    ENOSPC) flips the store into degraded read-only mode: lookups keep
    serving, puts become counted no-ops, and the process never sees an
    exception from persistence.

    Observability ([Obs] counters/gauges): [store.recovery.records],
    [store.recovery.torn_tails], [store.recovery.quarantined_records],
    [store.recovery.quarantined_segments], [store.hit]/[store.miss]
    (with the hits split into [store.lookup.exact_hits] — the winning
    entry sits in the request ε's own bucket — and
    [store.lookup.bucket_hits] — served from a tighter bucket by the
    ε-monotonic relaxation), [store.put]/[store.put.dropped],
    [store.read_verify.rejected], [store.faults.injected], and gauges
    [store.records], [store.segments], [store.degraded]. *)

type t

(** {1 Targets} *)

type target = Rz of float | U3 of float * float * float
(** Canonical rotation targets.  [U3] carries the Euler angles of
    [Mat2.to_u3_angles]; angle identity follows {!target_id}'s
    10-decimal rendering, while the exact float bits are persisted (hex
    floats) so re-verification reconstructs the matrix bit-exactly. *)

val target_id : target -> string
(** ["rz(%.10f)"] / ["u3(%.10f,%.10f,%.10f)"], the one formatter of a
    target's angles: [Synth.target_id] and the engine's keys use it. *)

val default_gate_set : string
(** ["cliffordt"] — the only alphabet the compiler emits today; the key
    dimension exists so precomputed tables for other gate sets can
    share one store. *)

(** {1 Entries} *)

type entry = {
  gate_set : string;
  target : target;
  eps_req : float;  (** ε requested when the word was synthesized *)
  distance : float;  (** guard-verified distance at write time *)
  word : Ctgate.t list;
  t_count : int;
  backend : string;  (** the backend that produced the word *)
  chain : string;  (** chain id it was produced under (provenance only) *)
}

val bucket_of_eps : float -> int
(** ε-bucket index (4 per decade, tighter ε → larger index).  At most
    one entry per (gate set, target, bucket-of-distance) is retained:
    the cheapest (lowest T-count) word in that accuracy band. *)

(** {1 Opening and closing} *)

type recovery = {
  segments_scanned : int;  (** segments read end to end with CRC checks *)
  records_recovered : int;  (** valid records recovered by scanning *)
  records_quarantined : int;
      (** CRC/framing failures dropped, and intact records that
          [quarantine/rejected.jsonl] names *)
  segments_quarantined : int;  (** segment files moved to [quarantine/] *)
  torn_tails : int;  (** torn final frames truncated away *)
}

val open_store : ?readonly:bool -> ?segment_max_bytes:int -> string -> (t, string) result
(** Open (creating if needed) the store at that directory and run the
    recovery scan over every segment.  [readonly] (default false) skips
    the writer lock and never modifies the directory (torn tails are
    tolerated in memory instead of truncated).  Every served word is
    re-verified against the requested target ({!lookup}).
    [segment_max_bytes] (default 4 MiB) bounds a segment before
    appends roll over to a fresh one.  [Error] when the directory is
    unusable or another writer holds the lock. *)

val recovery : t -> recovery
(** What the open-time scan found (all zeros for a fresh, empty dir). *)

val dir : t -> string
val readonly : t -> bool

val degraded : t -> bool
(** The store stopped persisting (append failure / injected ENOSPC);
    lookups still serve. *)

val size : t -> int
(** Live entries in the index. *)

val close : t -> unit
(** Close the segment receiving appends and release the writer lock.
    It writes nothing: every put was flushed when it was made.
    Idempotent. *)

(** {1 Reading and writing} *)

val put : t -> entry -> unit
(** Append the entry to the current segment (CRC-framed, flushed) and
    index it.  Within one (gate set, target, distance-bucket) cell only
    the lowest-T-count word is kept.  Counted no-op when [readonly] or
    [degraded]; an append failure degrades the store rather than
    raising. *)

val lookup : t -> ?gate_set:string -> epsilon:float -> target -> entry option
(** The cheapest stored word for [target] whose verified distance is
    ≤ [epsilon], re-verified on the way out: the candidate's unitary is
    recomputed and checked against the requested target through
    [Robust.verify]; on mismatch the entry is dropped from the index,
    recorded in [quarantine/rejected.jsonl], counted as
    [store.read_verify.rejected], and the next candidate is tried.
    [None] is a miss.  The returned [distance] is the freshly verified
    one.  Hits are classified by the winning entry's {e stored}
    distance: same ε-bucket as the request counts as
    [store.lookup.exact_hits], a tighter bucket as
    [store.lookup.bucket_hits]. *)

val entries : t -> entry list
(** Every live entry (index order unspecified) — for tests and tools. *)

val stats_json : t -> Obs.Json.t
(** One-object summary (records, segments, hits/misses/puts, degraded
    flag, recovery counts) — what the server's [stats] op returns. *)

(** {1 Framing internals (exposed for tests)} *)

val crc32 : string -> int
(** IEEE CRC-32 of the string (unsigned, fits 32 bits). *)

val frame : string -> string
(** Wrap a payload in the on-disk record frame. *)

val entry_payload : entry -> string
(** The JSON payload persisted for an entry. *)

val entry_of_payload : string -> (entry, string) result
