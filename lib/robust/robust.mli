(** Hardening vocabulary for the synthesis pipeline: structured
    failures, a verification guard on every synthesized word, the
    result record of a fallback chain, and deterministic seeded fault
    injection.

    Design:

    - {b Structured errors, not exceptions.}  Every per-rotation
      synthesis returns [(attempt, failure) result].  A backend's own
      exceptions ([Gridsynth.Synthesis_failed], [Invalid_argument],
      [Failure]) become {!Backend_error} in [Synth.wrap], at the adapter
      boundary.  The only exception crossing module boundaries is
      {!Failure_exn}, used by direct-style wrappers and caught by
      {!guarded} in the CLIs.
    - {b Trust nothing.}  A rung's output is never accepted on its own
      claim: the guard recomputes the word's unitary and checks both
      that the claimed distance is honest and that the rung's threshold
      is met before the word enters a circuit.  It fails closed: a NaN
      claim or threshold is rejected.
    - {b Guaranteed landing.}  The standard ladders ([Synth.u3_chain],
      [Synth.rz_chain]) end in Solovay–Kitaev depth escalation, which
      always terminates (Dawson–Nielsen), so a chain only fails outright
      when every rung misbehaves or the deadline expires.
    - {b Testable end to end.}  The fault layer ({!Fault}) can force
      any rung to fail, stall, or emit a corrupted word — each draw a
      pure function of the plan and the call ({!Fault.draw}) — via the
      [TGATES_FAULTS] environment variable or the programmatic API.

    The chain runner that applies all of this lives in [Synth]
    ([Synth.run_chain]); it counts [robust.retries],
    [robust.fallback.<rung>], [robust.faults.injected],
    [robust.deadline.expired] and [robust.chain.failed].  This module
    counts [robust.guard.checked] / [robust.guard.rejected]. *)

(** {1 Failure taxonomy} *)

type failure =
  | Timeout  (** a per-rotation or whole-circuit deadline expired *)
  | Budget_exhausted
      (** every rung returned honestly but none met its error threshold *)
  | Verification_failed
      (** a rung's word, re-verified against the target, does not match
          the distance the rung claimed — a corrupted or wrong output *)
  | Backend_error of string  (** a rung raised instead of returning *)

exception Failure_exn of failure
(** Carrier for direct-style entry points ({!Pipeline.compare_workflows});
    caught by {!guarded} at the CLI boundary. *)

val fail : failure -> 'a
(** [raise (Failure_exn f)]. *)

val failure_to_string : failure -> string
(** One-line, human-readable, stable across releases — what the CLIs
    print to stderr. *)

(** {1 Chain results} *)

type attempt = {
  word : Ctgate.t list;
  distance : float;  (** guard-verified distance, not the rung's claim *)
  backend : string;  (** name of the rung that produced the word *)
  fallbacks : int;  (** rungs that failed before this one *)
  rung_epsilon : float;  (** the threshold the word was accepted under *)
}
(** What [Synth.run_chain] returns for a rotation it synthesized or
    served from the store. *)

val degraded : epsilon:float -> attempt -> bool
(** The one rule for a degraded answer: a rung before this one failed,
    or the distance overshoots [epsilon] where [epsilon] > 0 (ε = 0 asks
    for the best word the budget finds, which no distance overshoots).
    The engine's stats, [Pipeline]'s degradation report and the
    ledger's [degraded] field all read it. *)

(** {1 The guard} *)

val verify :
  target:Mat2.t ->
  epsilon:float ->
  claimed:float ->
  Ctgate.t list ->
  (float, failure) result
(** Recompute the word's unitary and its distance [d] to [target].
    [Error Verification_failed] when [d] disagrees with [claimed] by
    more than 1e-6 — the backend lied or the word was
    corrupted — or the claim is NaN; [Error Budget_exhausted] when the
    word is honest but [d > epsilon], or [epsilon] is NaN; [Ok d]
    otherwise.  Every call bumps [robust.guard.checked], every
    [Verification_failed] bumps [robust.guard.rejected]. *)

(** {1 Deterministic fault injection} *)

module Fault : sig
  type mode =
    | Fail  (** the rung raises instead of returning *)
    | Stall of float  (** sleep that many seconds before the rung runs *)
    | Corrupt  (** the rung's word is altered after it returns, so only
                   the guard can catch it *)
    | Torn
        (** store I/O only: the append writes a partial frame and stops
            — a deterministic [kill -9] mid-write.  On a synthesis rung
            this behaves like {!Fail}. *)
    | Enospc
        (** store I/O only: the write fails as if the disk were full;
            the store degrades to read-only.  On a synthesis rung this
            behaves like {!Fail}. *)

  type spec = {
    backend : string;
        (** rung name to target: ["trasyn"], ["gridsynth"], ["sk"], …,
            or the store's I/O site (["store.append"]);
            ["*"] matches every rung; a name matches its sub-rungs too
            (["trasyn"] also hits ["trasyn.retry"]) *)
    mode : mode;
    prob : float;  (** per-call firing probability in \[0, 1\] *)
  }

  val parse : string -> (int option * spec list, string) result
  (** The [TGATES_FAULTS] grammar: comma-separated clauses, each either
      [seed=INT] or [backend=action], where action is [fail], [corrupt],
      [torn], [enospc] or [stall:SECONDS], optionally suffixed [@PROB].
      Examples: ["trasyn=fail"], ["*=corrupt@0.25,seed=7"],
      ["gridsynth=stall:0.2,sk=fail"],
      ["store.append=torn"] (crash mid-append),
      ["store.append=corrupt"] (flip a payload byte on disk),
      ["store.append=enospc"] (disk full). *)

  val configure : ?seed:int -> spec list -> unit
  (** Install a plan: the spec list and [seed] (default 0), replacing
      any earlier plan, including one read from the environment. *)

  val uniform : string -> float
  (** The uniform in \[0, 1) of a string: the top 53 bits of its MD5.
      Draws and the server's backoff jitter are derived from it. *)

  val draw : string -> key:(unit -> string) -> mode option
  (** Consult the plan for one call at [site] (a rung name, or
      ["store.append"]).  The first spec that matches [site] fires when
      {!uniform} of (plan seed, [site], [key ()]) is below its
      probability, so at probability 1 it always fires.  [key] names
      the call: [Synth]'s rungs pass the target's [Synth.target_id] and
      the index of the chain execution (0, then one more for each
      retry), [Store.put] the entry's gate set and target.

      A draw is a pure function of the plan, [site] and the key: not of
      earlier draws, their order or the domain that makes them.  So a
      faulted run gives the same output at any [--jobs], for the
      engine's jobs and a server batch's alike.  [key] is called only
      when a spec below probability 1 matches: with no plan armed a
      draw formats no key and allocates nothing.

      On first use, if {!configure} was never called, [TGATES_FAULTS]
      is parsed and installed ([Invalid_argument] on a malformed
      value). *)

  val with_faults : ?seed:int -> spec list -> (unit -> 'a) -> 'a
  (** Run [f] under the plan, then restore the previous one — what
      tests should use. *)
end

(** {1 CLI boundary} *)

val guarded : (unit -> 'a) -> ('a, string) result
(** Run [f], converting the expected failure modes of a compilation run
    into a one-line error message (no backtrace): {!Failure_exn},
    [Qasm_reader.Parse_error], [Gridsynth.Synthesis_failed],
    [Sys_error] (missing input files), and [Invalid_argument] (bad
    arguments, malformed [TGATES_FAULTS]).  Anything else — a genuine
    bug — still propagates with its backtrace. *)
