(* See robust.mli for the contract.  The chain runner that puts the
   guard and the fault layer to work lives in [Synth]; everything here
   is small and pure. *)

type failure =
  | Timeout
  | Budget_exhausted
  | Verification_failed
  | Backend_error of string

exception Failure_exn of failure

let fail f = raise (Failure_exn f)

let failure_to_string = function
  | Timeout -> "timeout: wall-clock budget exhausted before synthesis finished"
  | Budget_exhausted -> "budget exhausted: no backend met its error threshold"
  | Verification_failed -> "verification failed: a synthesized word does not match its target"
  | Backend_error msg -> "backend error: " ^ msg

type attempt = {
  word : Ctgate.t list;
  distance : float;
  backend : string;
  fallbacks : int;
  rung_epsilon : float;
}

let degraded ~epsilon a = a.fallbacks > 0 || (epsilon > 0.0 && a.distance > epsilon)

(* Observability handles (interned once). *)
let c_guard_checked = Obs.counter "robust.guard.checked"
let c_guard_rejected = Obs.counter "robust.guard.rejected"

(* ------------------------------------------------------------------ *)
(* The guard                                                           *)
(* ------------------------------------------------------------------ *)

let verify ~target ~epsilon ~claimed word =
  Obs.incr c_guard_checked;
  let d = Mat2.distance target (Ctgate.seq_to_mat2 word) in
  (* Both tests are written to fail closed: a NaN claim or threshold
     compares false, so it is rejected rather than waved through. *)
  if not (Float.abs (d -. claimed) <= 1e-6) then begin
    Obs.incr c_guard_rejected;
    Error Verification_failed
  end
  (* The small slack mirrors gridsynth's own acceptance test: the
     distance formula has a ~sqrt(ulp) floor near zero. *)
  else if not (d <= epsilon +. 1e-12) then Error Budget_exhausted
  else Ok d

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)
(* ------------------------------------------------------------------ *)

module Fault = struct
  type mode = Fail | Stall of float | Corrupt | Torn | Enospc

  type spec = { backend : string; mode : mode; prob : float }

  (* A spec targets a rung by exact name, by "*", or as a dotted
     prefix: "trasyn" also covers "trasyn.retry". *)
  let matches spec name =
    spec.backend = "*" || spec.backend = name
    ||
    let pl = String.length spec.backend in
    String.length name > pl && String.sub name 0 pl = spec.backend && name.[pl] = '.'

  let parse_clause clause =
    match String.index_opt clause '=' with
    | None -> Error (Printf.sprintf "clause %S has no '='" clause)
    | Some i -> (
        let backend = String.trim (String.sub clause 0 i) in
        let action = String.trim (String.sub clause (i + 1) (String.length clause - i - 1)) in
        if backend = "" then Error (Printf.sprintf "clause %S has an empty backend" clause)
        else if backend = "seed" then
          match int_of_string_opt action with
          | Some s -> Ok (`Seed s)
          | None -> Error (Printf.sprintf "bad seed %S" action)
        else begin
          let action, prob =
            match String.index_opt action '@' with
            | None -> (action, Ok 1.0)
            | Some j ->
                let p = String.sub action (j + 1) (String.length action - j - 1) in
                ( String.sub action 0 j,
                  match float_of_string_opt p with
                  | Some p when p >= 0.0 && p <= 1.0 -> Ok p
                  | _ -> Error (Printf.sprintf "bad probability %S" p) )
          in
          let mode =
            match String.index_opt action ':' with
            | None -> (
                match action with
                | "fail" -> Ok Fail
                | "corrupt" -> Ok Corrupt
                | "torn" -> Ok Torn
                | "enospc" -> Ok Enospc
                | "stall" -> Ok (Stall 0.05)
                | a -> Error (Printf.sprintf "unknown fault action %S" a))
            | Some j -> (
                let head = String.sub action 0 j in
                let arg = String.sub action (j + 1) (String.length action - j - 1) in
                match (head, float_of_string_opt arg) with
                | "stall", Some s when s >= 0.0 -> Ok (Stall s)
                | "stall", _ -> Error (Printf.sprintf "bad stall duration %S" arg)
                | a, _ -> Error (Printf.sprintf "unknown fault action %S" a))
          in
          match (mode, prob) with
          | Ok mode, Ok prob -> Ok (`Spec { backend; mode; prob })
          | Error e, _ | _, Error e -> Error e
        end)

  let parse s =
    let clauses =
      String.split_on_char ',' s |> List.map String.trim |> List.filter (fun c -> c <> "")
    in
    let rec go seed specs = function
      | [] -> Ok (seed, List.rev specs)
      | c :: rest -> (
          match parse_clause c with
          | Ok (`Seed s) -> go (Some s) specs rest
          | Ok (`Spec sp) -> go seed (sp :: specs) rest
          | Error e -> Error e)
    in
    go None [] clauses

  type plan = { seed : int; specs : spec list }

  (* [None] until [configure] installs a plan or the first draw reads
     TGATES_FAULTS.  A plan is never mutated, so a draw reads it with
     one atomic load and takes no lock. *)
  let installed : plan option Atomic.t = Atomic.make None

  let configure ?(seed = 0) specs = Atomic.set installed (Some { seed; specs })

  let of_env () =
    match Sys.getenv_opt "TGATES_FAULTS" with
    | Some v when String.trim v <> "" -> (
        match parse v with
        | Ok (seed, specs) -> { seed = Option.value seed ~default:0; specs }
        | Error e -> invalid_arg ("TGATES_FAULTS: " ^ e))
    | _ -> { seed = 0; specs = [] }

  (* Domains that race to the first draw may each read the variable;
     the first install wins. *)
  let rec plan () =
    match Atomic.get installed with
    | Some p -> p
    | None ->
        ignore (Atomic.compare_and_set installed None (Some (of_env ())));
        plan ()

  let uniform s =
    let bits = Int64.shift_right_logical (String.get_int64_le (Digest.string s) 0) 11 in
    Int64.to_float bits *. 0x1p-53

  (* A top-level loop, not [List.find_opt] with a closure, so that a
     draw under an empty plan allocates nothing. *)
  let rec find_spec site = function
    | [] -> None
    | sp :: rest -> if matches sp site then Some sp else find_spec site rest

  let draw site ~key =
    let p = plan () in
    match find_spec site p.specs with
    | None -> None
    | Some sp when sp.prob >= 1.0 -> Some sp.mode
    | Some sp ->
        if uniform (Printf.sprintf "%d\x00%s\x00%s" p.seed site (key ())) < sp.prob then
          Some sp.mode
        else None

  let with_faults ?seed specs f =
    let saved = Atomic.get installed in
    configure ?seed specs;
    Fun.protect ~finally:(fun () -> Atomic.set installed saved) f
end

(* ------------------------------------------------------------------ *)
(* CLI boundary                                                        *)
(* ------------------------------------------------------------------ *)

let guarded f =
  match f () with
  | v -> Ok v
  | exception Failure_exn fl -> Error ("error: " ^ failure_to_string fl)
  | exception Qasm_reader.Parse_error (file, line, col, msg) ->
      Error (Printf.sprintf "error: %s:%d:%d: %s" file line col msg)
  | exception Gridsynth.Synthesis_failed msg -> Error ("error: synthesis failed: " ^ msg)
  | exception Sys_error msg -> Error ("error: " ^ msg)
  | exception Invalid_argument msg -> Error ("error: invalid argument: " ^ msg)
