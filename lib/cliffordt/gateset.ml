(** Gate sets as data: a named descriptor of the synthesis alphabet —
    generators and how its operator table is enumerated — plus a
    registry so the rest of the stack selects an alphabet by name.
    Adding an alphabet is a descriptor; its table is enumerated on first
    use ([Ma_table.get_for]), not a fork of the synthesis code. *)

type enumeration =
  | Ma_normal_form
      (** Matsumoto–Amano normal forms [ε|T](HT|SHT)*·C — exact, linear
          in the output count, T-optimal by construction.  Only valid
          for the full Clifford+T alphabet. *)
  | Bfs
      (** Generic closure: Dijkstra by non-Clifford count over words in
          the generators, deduplicated by canonical unitary.  Works for
          any sub-alphabet of Clifford+T; slower, and word lengths are
          only level-wise shortest. *)

type t = {
  name : string;  (** registry key; also the store/ledger gate-set id *)
  description : string;
  generators : Ctgate.t list;  (** the alphabet, as exact Clifford+T gates *)
  enumeration : enumeration;
}

let full_alphabet = Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]
let full gs = List.for_all (fun g -> List.mem g gs.generators) full_alphabet

let cliffordt =
  {
    name = "cliffordt";
    description = "Clifford+T (the paper's alphabet)";
    generators = full_alphabet;
    enumeration = Ma_normal_form;
  }

(* The same alphabet through the generic closure: a second built-in
   gate set whose table comes from the path every sub-alphabet takes.
   Its name stays, because stores, ledgers and --gate-set users refer
   to it. *)
let cliffordt_weighted =
  {
    name = "cliffordt-weighted";
    description = "Clifford+T, enumerated by the generic closure";
    generators = full_alphabet;
    enumeration = Bfs;
  }

let registry : (string, t) Hashtbl.t = Hashtbl.create 8
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* One descriptor per name: [Ma_table] caches tables by name, so a
   second descriptor under a taken name would be served the first one's
   table. *)
let register gs =
  if gs.name = "" then invalid_arg "Gateset.register: empty name";
  with_lock (fun () ->
      match Hashtbl.find_opt registry gs.name with
      | Some old when old = gs -> ()
      | Some _ ->
          invalid_arg
            (Printf.sprintf "gate set %S is already registered with a different descriptor"
               gs.name)
      | None -> Hashtbl.add registry gs.name gs)

let () =
  register cliffordt;
  register cliffordt_weighted

let find name = with_lock (fun () -> Hashtbl.find_opt registry name)

let names () =
  with_lock (fun () -> Hashtbl.fold (fun n _ acc -> n :: acc) registry [])
  |> List.sort compare

let default = cliffordt

(* A descriptor parsed from a config file: name plus optional generator
   subset, JSON so gate sets really are data.
   {"name":"...","description":"...","generators":"HSsTtXYZ",
    "enumeration":"bfs"}
   Members it does not read, such as the "weights" of older files, are
   ignored. *)
let of_json j =
  let module J = Obs.Json in
  let str m = match J.member m j with Some (J.Str s) -> Some s | _ -> None in
  match str "name" with
  | None -> Error "gate-set config: missing \"name\""
  | Some name -> (
      try
        let description = Option.value (str "description") ~default:"user-defined" in
        let generators =
          match str "generators" with
          | None -> full_alphabet
          | Some s -> List.map Ctgate.of_char (List.of_seq (String.to_seq s))
        in
        let enumeration =
          match str "enumeration" with
          | Some "ma" -> Ma_normal_form
          | Some "bfs" | None -> Bfs
          | Some other -> invalid_arg (Printf.sprintf "unknown enumeration %S" other)
        in
        let gs = { name; description; generators; enumeration } in
        if enumeration = Ma_normal_form && not (full gs) then
          invalid_arg "enumeration \"ma\" needs the full Clifford+T alphabet";
        Ok gs
      with Invalid_argument msg -> Error (Printf.sprintf "gate-set config: %s" msg))

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | raw -> (
      match Obs.Json.parse raw with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok j -> (
          match of_json j with
          | Error e -> Error (Printf.sprintf "%s: %s" path e)
          | Ok gs -> (
              match register gs with
              | () -> Ok gs
              | exception Invalid_argument e -> Error (Printf.sprintf "%s: %s" path e))))
