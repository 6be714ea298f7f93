(** The 16 transpilation settings of §3.4: {Rz, U3} IR × optimization
    levels 0–3 × commutation pass on/off. *)

type ir = Rz_ir | U3_ir

val ir_to_string : ir -> string

type setting = { ir : ir; level : int; commutation : bool }

val all_settings : setting list
(** All 16, in a fixed order. *)

val setting_to_string : setting -> string
(** e.g. ["u3-O2+c"]. *)

val apply : setting -> Circuit.t -> Circuit.t
(** Semantics-preserving (up to global phase); property-tested.  Every
    setting lowers the circuit ({!Basis.lower}), runs the commutation
    pass on it when [commutation], then its level's passes, then the
    expansion to its IR. *)

val best_for : ir -> Circuit.t -> setting * Circuit.t
(** The setting of the given IR minimizing nontrivial rotations (then
    total gates, then the order of {!all_settings}) and its circuit —
    the pre-synthesis selection rule of §4.2.  The eight candidates
    share their pass prefixes, each computed once: one lowering, one
    commutation pass over it for the four [+c] settings, and per branch
    (with or without that pass) one [merge_1q (cancel_pairs x)] for O2
    and for the first step of O3.  The result equals applying every
    setting from scratch. *)

val winner : Circuit.t -> setting
(** Best across both IRs — the Figure 6 statistic.  The sixteen
    candidates share the prefixes of {!best_for}, and each level's
    circuit is expanded to both IRs. *)
