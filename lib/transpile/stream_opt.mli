(** Windowed (online) transpilation: the merge / commute / phase-fold
    passes recast over a sliding window of at most W gates, for
    optimizing streams that must never be materialized whole.

    Gates enter one at a time ({!push}), are lowered and expanded to
    the configured IR, and fold backward through the window: 1q runs
    fuse into U3s (U3 IR), Rz angles phase-fold through CX controls
    (Rz IR), and self-inverse pairs cancel.  A merge only ever moves a
    gate backward past instructions it provably commutes with
    ({!Commute.commutes_past}), so the emitted stream is always a valid
    reordering/fusion of the input; gates leave the window strictly in
    input order.  Peak state is the W-slot ring — the optimizer never
    holds more than W gates.

    The ring is parallel arrays over W physical slots, stepped with a
    wrap test instead of [mod]: each slot's instruction, a kind byte (a
    tombstone, a 1q gate or a CX, since lowering leaves no other gate)
    and its first and second qubit.  A backward scan decides
    every step on those ints, reading an instruction only to fuse it
    or to classify a 1q gate on the same qubit, and allocates nothing;
    a fused 1q run keeps [Mat2]'s product and Euler angles, so every
    angle is the double the whole-circuit merge computes.  A gate that
    lowering leaves alone goes in without a list. *)

type t
(** One in-progress windowed optimization (single-threaded). *)

val create : ?window:int -> Settings.ir -> t
(** A fresh window for the given IR.  [window] (default 64) is W, the
    maximum number of gates held.
    @raise Invalid_argument when [window < 1]. *)

val push : t -> Circuit.instr -> emit:(Circuit.instr -> unit) -> unit
(** Feed one instruction; [emit] receives any gates the window gives up
    (oldest first) to stay within W.  Emitted gates are final. *)

val flush : t -> emit:(Circuit.instr -> unit) -> unit
(** Drain the window (end of stream); [emit] receives the remaining
    gates in order. *)

val run : ?window:int -> Settings.ir -> Circuit.t -> Circuit.t
(** Whole-circuit convenience: push every instruction, then flush. *)

val window : t -> int

val gates_in : t -> int
(** Instructions pushed so far (before lowering/IR expansion). *)

val gates_out : t -> int
(** Primitives emitted so far (tombstoned gates never count). *)
