(** Gate sets as data.

    A gate set is a named descriptor — generator alphabet, non-Clifford
    cost weights, table-enumeration strategy — registered by name so
    every layer of the synthesis stack (store keys, ledger provenance,
    backend capabilities, server protocol) can select an alphabet
    without hardcoding Clifford+T.  Adding an alphabet is a descriptor
    (built-in, or a JSON config via {!load_file}) plus an offline table
    generated by {!Tablegen} — not a fork of the synthesis code. *)

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
          and T† at 1, making {!word_cost} the T count. *)
  enumeration : enumeration;
  closed_count : (int -> int) option;
      (** closed-form operator count at T-depth m, for verification *)
}

val gate_weight : t -> Ctgate.t -> float
val word_cost : t -> Ctgate.t list -> float

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
(** Add (or replace) a descriptor under its name.  Thread-safe. *)

val find : string -> t option
val find_exn : string -> t
(** @raise Failure with the known names on an unknown gate set. *)

val names : unit -> string list
(** Registered names, sorted. *)

(** {1 Config files} *)

val of_json : Obs.Json.t -> (t, string) result
(** Parse a descriptor from
    [{"name":..,"generators":"HSsTtXYZ","weights":{"T":1.0,"t":1.25},
      "enumeration":"bfs"}].  Generators/weights use the one-character
    gate encoding of [Ctgate.of_char]; omitted fields default to the
    full alphabet with unit T/T† weights. *)

val load_file : string -> (t, string) result
(** Parse the JSON file and {!register} the descriptor. *)
