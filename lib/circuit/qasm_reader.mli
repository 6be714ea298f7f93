(** OpenQASM 2.0 reader for the qelib1-style gate subset this project
    emits (h/x/y/z/s/sdg/t/tdg, rx/ry/rz/u1/u/u3 with pi-arithmetic in
    arguments, cx/cz/swap/ccx).  Single quantum register; barriers,
    classical registers and measurements are skipped.

    Two entry styles share one per-statement parser, so they accept
    exactly the same language and produce identical instructions:

    - the whole-circuit API ({!of_string} / {!of_file}) drains the
      source into a {!Circuit.t};
    - the incremental API ({!stream_of_channel} / {!stream_of_string} +
      {!next_event}) reads the source in fixed-size chunks — memory
      held is one chunk plus one line, never the whole file — and
      yields one {!event} per statement, for million-gate inputs that
      should not be materialized.

    Malformed input raises {!Parse_error} pointing at the offending
    token — including gate-arity mismatches, out-of-range qubits, and
    truncated expressions, which are all caught per statement rather
    than surfacing later from circuit construction. *)

exception Parse_error of string * int * int * string
(** Source file (["<string>"] for {!of_string} without [file]), line
    number, 1-based column, and a description — enough to render a
    compiler-style ["file:line:col: message"].  The column points at
    the offending token (an expression character, a qubit operand, a
    misplaced parenthesis), not merely at the statement start. *)

(** {1 Whole-circuit API} *)

val of_string : ?file:string -> string -> Circuit.t
(** [file] (default ["<string>"]) is used only in error messages. *)

val of_file : string -> Circuit.t
(** Streams and parses [path] chunk by chunk (the file is never held in
    memory whole); {!Parse_error} messages carry [path].
    @raise Sys_error when the file cannot be read. *)

(** {1 Incremental API} *)

type event =
  | Qreg of int  (** [qreg q[n]] declared [n] qubits *)
  | Instr of Circuit.instr  (** one gate application *)

type stream
(** An in-progress incremental parse: source handle, a bounded
    read-ahead chunk, the line being assembled, and the declaration
    state used for per-statement validation. *)

val stream_of_channel : ?file:string -> ?chunk:int -> in_channel -> stream
(** Incremental parse over a channel.  [chunk] (default 65536, must be
    ≥ 1) is the refill size — statements and comments may split
    anywhere across chunk boundaries.  The channel is not closed by the
    reader. *)

val stream_of_string : ?file:string -> ?chunk:int -> string -> stream
(** As {!stream_of_channel} over an in-memory source; chiefly for
    testing chunk-boundary behavior. *)

val next_event : stream -> event option
(** The next statement-level event, or [None] at end of input.  Blank
    lines, comments, and skipped statements (OPENQASM, include,
    barrier, creg, measure) are consumed silently; a final line without
    a trailing newline still parses.
    @raise Parse_error on malformed input, with exact line and column. *)

val of_stream : stream -> Circuit.t
(** Drain the stream into a circuit (the whole-circuit API is this). *)

val stream_n_qubits : stream -> int
(** Qubits declared so far (0 before the first [qreg]). *)

