(** Gate sets as data.

    A gate set is a named descriptor — generator alphabet and
    table-enumeration strategy — registered by name so
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
  enumeration : enumeration;
}
(** Plain data: two descriptors are the same when [=] says so.  Every
    backend and TRASYN's selection score words by T count. *)

val full : t -> bool
(** Whether the generators include all of Clifford+T, so that the
    table's operator count is [Ma_table.theoretical_count]. *)

val cliffordt : t
(** The paper's alphabet; table enumeration stays the exact in-process
    [Ma_table.build], so behavior is bit-identical to the pre-gateset
    stack. *)

val cliffordt_weighted : t
(** The full Clifford+T alphabet enumerated by the generic closure
    ({!Bfs}): the built-in second gate set, whose table holds the same
    operators as [cliffordt]'s in the closure's words and order.  The
    name is kept because stores, ledgers and [--gate-set] users refer to
    it. *)

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
    [{"name":..,"generators":"HSsTtXYZ","enumeration":"bfs"}].
    Generators use the one-character gate encoding of [Ctgate.of_char];
    omitted fields default to the full alphabet.  Members it does not
    read are ignored, so a file that still carries the ["weights"] of
    older descriptors loads.  ["ma"] enumeration on a sub-alphabet is an
    [Error]: its normal forms use every gate. *)

val load_file : string -> (t, string) result
(** Parse the JSON file and {!register} the descriptor; [Error] (with
    the path) when it does not parse or its name is taken. *)
