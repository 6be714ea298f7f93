(** Step 3 of TRASYN: peephole resynthesis.  Windows of the sampled word
    are evaluated exactly in D[ω] and replaced whenever the step-0 table
    knows a cheaper equivalent (fewer T, then fewer Cliffords, then
    shorter), iterating to a fixpoint.  Rewrites preserve the operator
    up to global phase. *)

val run : ?max_window:int -> ?max_iters:int -> Ma_table.t -> Ctgate.t list -> Ctgate.t list
(** [run table word] rewrites, at the leftmost start that has an improving
    window, its longest improving window, until none is left or
    [max_iters] (default 200) rewrites are made.  Windows hold at most
    [max_window] (default 24) gates and [Ma_table.max_t table] T gates.  One scan:
    after a rewrite at position p the scan resumes at
    max(0, p − [max_window]).  Counts its windows and rewrites in
    [trasyn.postprocess.windows] and [.rewrites].  Each window's product
    is looked up through one {!Ma_table.probe} per call, so a window
    allocates only its exact product. *)
