(** Gate sets as data: a named descriptor of the synthesis alphabet —
    generators, non-Clifford cost weights, how its operator table is
    enumerated — plus a registry so the rest of the stack selects an
    alphabet by name.  Adding an alphabet is a descriptor; its table is
    enumerated on first use ([Ma_table.get_for]), not a fork of the
    synthesis code. *)

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
  weights : (Ctgate.t * float) list;
      (** per-gate synthesis cost; gates absent from the list cost 0.
          Plain Clifford+T weighs T and T† at 1 — [word_cost] then
          equals the T count. *)
  enumeration : enumeration;
}

let gate_weight gs g =
  match List.assoc_opt g gs.weights with Some w -> w | None -> 0.

let word_cost gs seq = List.fold_left (fun acc g -> acc +. gate_weight gs g) 0. seq

let full_alphabet = Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]
let full gs = List.for_all (fun g -> List.mem g gs.generators) full_alphabet

let cliffordt =
  {
    name = "cliffordt";
    description = "Clifford+T, unit T/T\xe2\x80\xa0 cost (the paper's alphabet)";
    generators = full_alphabet;
    weights = Ctgate.[ (T, 1.); (Tdg, 1.) ];
    enumeration = Ma_normal_form;
  }

(* Same generators, asymmetric magic-state pricing: architectures that
   distill |T> but synthesize T† as S†·T·(phase) pay a Clifford tax on
   the adjoint, so T† weighs 5/4.  Exercises every weight-aware code
   path while the exact arithmetic stays in Z[ω]. *)
let cliffordt_weighted =
  {
    name = "cliffordt-weighted";
    description = "Clifford+T with T\xe2\x80\xa0 at 1.25\xc3\x97 the T cost";
    generators = full_alphabet;
    weights = Ctgate.[ (T, 1.); (Tdg, 1.25) ];
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

(* A descriptor parsed from a config file: name plus optional weight
   overrides and generator subset, JSON so gate sets really are data.
   {"name":"...","description":"...","generators":"HSsTtXYZ",
    "weights":{"T":1.0,"t":1.25},"enumeration":"bfs"} *)
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
        let weights =
          match J.member "weights" j with
          | Some (J.Obj kvs) ->
              List.map
                (fun (k, v) ->
                  let g =
                    if String.length k = 1 then Ctgate.of_char k.[0]
                    else invalid_arg (Printf.sprintf "bad gate %S" k)
                  in
                  match v with
                  | J.Num w -> (g, w)
                  | _ -> invalid_arg (Printf.sprintf "weight for %S not a number" k))
                kvs
          | _ -> Ctgate.[ (T, 1.); (Tdg, 1.) ]
        in
        let enumeration =
          match str "enumeration" with
          | Some "ma" -> Ma_normal_form
          | Some "bfs" | None -> Bfs
          | Some other -> invalid_arg (Printf.sprintf "unknown enumeration %S" other)
        in
        let gs = { name; description; generators; weights; enumeration } in
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
