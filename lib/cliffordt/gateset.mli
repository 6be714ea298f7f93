(** Gate sets as data.

    A gate set is a named descriptor — generator alphabet, non-Clifford
    cost weights, table-enumeration strategy — registered by name so
    every layer of the synthesis stack (store keys, ledger provenance,
    backend capabilities, server protocol, the step-0 table of
    [Ma_table.get_for]) can select an alphabet without hardcoding
    Clifford+T.  Adding an alphabet is a descriptor (built-in, or a JSON
    config via {!load_file}); its table is enumerated on first use — not
    a fork of the synthesis code. *)

type enumeration =
  | Ma_normal_form
      (** Matsumoto–Amano normal forms [ε|T](HT|SHT)*·C — linear in the
          output count, T-optimal by construction; full Clifford+T
          only. *)
  | Bfs
      (** Generic closure, Dijkstra by non-Clifford count with
          canonical-unitary dedup; any sub-alphabet of Clifford+T. *)

type t = {
  name : string;  (** registry key; also the store/ledger gate-set id *)
  description : string;
  generators : Ctgate.t list;
  weights : (Ctgate.t * float) list;
      (** per-gate cost; unlisted gates cost 0.  Clifford+T weighs T
          and T† at 1, making {!word_cost} the T count.  No scorer reads
          it: every backend and TRASYN's selection score words by T
          count, so a gate set's weights show only in {!word_cost}, and
          [cliffordt-weighted] differs from [cliffordt] in its name and
          its table's enumeration. *)
  enumeration : enumeration;
}
(** Plain data: two descriptors are the same when [=] says so. *)

val gate_weight : t -> Ctgate.t -> float
val word_cost : t -> Ctgate.t list -> float

val full : t -> bool
(** Whether the generators include all of Clifford+T, so that the
    table's operator count is [Ma_table.theoretical_count]. *)

val cliffordt : t
(** The paper's alphabet; table enumeration stays the exact in-process
    [Ma_table.build], so behavior is bit-identical to the pre-gateset
    stack. *)

val cliffordt_weighted : t
(** Clifford+T with T† at 1.25× the T cost (asymmetric magic-state
    pricing) — the built-in second alphabet, enumerated by {!Bfs}. *)

val default : t
(** [cliffordt]. *)

(** {1 Registry} *)

val register : t -> unit
(** Add a descriptor under its name; registering the same descriptor
    again is a no-op.  Thread-safe.
    @raise Invalid_argument on an empty name, or on a name already
    registered to a different descriptor (tables are cached by name). *)

val find : string -> t option

val names : unit -> string list
(** Registered names, sorted. *)

(** {1 Config files} *)

val of_json : Obs.Json.t -> (t, string) result
(** Parse a descriptor from
    [{"name":..,"generators":"HSsTtXYZ","weights":{"T":1.0,"t":1.25},
      "enumeration":"bfs"}].  Generators/weights use the one-character
    gate encoding of [Ctgate.of_char]; omitted fields default to the
    full alphabet with unit T/T† weights.  ["ma"] enumeration on a
    sub-alphabet is an [Error]: its normal forms use every gate. *)

val load_file : string -> (t, string) result
(** Parse the JSON file and {!register} the descriptor; [Error] (with
    the path) when it does not parse or its name is taken. *)
