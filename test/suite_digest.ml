(* The suite digest: every circuit of the 187-circuit suite through both
   whole-circuit workflows at ε 0.07, one line per circuit and workflow,
   checked against the committed suite_digest.expected.  A line holds
   the MD5 of the output QASM, the summed synthesis error printed "%h",
   the rotation count and the degraded list, so a changed word, a
   different transpiler setting or a new fallback changes the line.

     suite_digest.exe EXPECTED          the fixed subsample (runtest)
     suite_digest.exe --all EXPECTED    all 187 circuits (@identity)
     suite_digest.exe --print           every line, to regenerate EXPECTED

   A check runs each selected circuit at jobs 1 and at jobs 2, and each
   run starts with the memo and TRASYN's chain cache cleared, so a line
   depends neither on the domain count nor on the circuits before it.
   A change that alters words on purpose regenerates the file, and its
   diff is the new word baseline. *)

let epsilon = 0.07

(* Every 12th circuit: 16 circuits from every category. *)
let in_subsample i = i mod 12 = 0

let workflows = [ ("gridsynth", Settings.Rz_ir); ("trasyn", Settings.U3_ir) ]

let degraded_to_string = function
  | [] -> "-"
  | ds ->
      String.concat ","
        (List.map
           (fun (d : Pipeline.degradation) ->
             Printf.sprintf "%s:%s:%d:%h" d.Pipeline.gate d.Pipeline.backend d.Pipeline.fallbacks
               d.Pipeline.achieved)
           ds)

let line i (b : Suite.benchmark) name result =
  Printf.sprintf "%03d %s %s %s" i b.Suite.name name
    (match result with
    | Error f -> "failed " ^ Robust.failure_to_string f
    | Ok (s : Pipeline.synthesized) ->
        Printf.sprintf "%s %h %d %s"
          (Digest.to_hex (Digest.string (Qasm.to_string s.Pipeline.circuit)))
          s.Pipeline.total_synth_error s.Pipeline.rotations_synthesized
          (degraded_to_string s.Pipeline.degraded))

let lines ~jobs keep =
  List.concat
    (List.mapi
       (fun i b ->
         if not (keep i) then []
         else
           List.map
             (fun (name, ir) ->
               Pipeline.clear_caches ();
               line i b name
                 (Pipeline.run (Stream_compile.config ~epsilon ~ir ~jobs ()) b.Suite.circuit))
             workflows)
       (Suite.all ()))

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let check ~all path =
  let keep i = all || in_subsample i in
  let index l = int_of_string (List.hd (String.split_on_char ' ' l)) in
  let expected = List.filter (fun l -> keep (index l)) (read_lines path) in
  let matches jobs =
    let got = lines ~jobs keep in
    let missing a b = List.filter (fun l -> not (List.mem l b)) a in
    if got <> expected then begin
      Printf.eprintf "suite_digest: jobs %d differs from %s\n" jobs path;
      List.iter (Printf.eprintf "  expected %s\n") (missing expected got);
      List.iter (Printf.eprintf "  got      %s\n") (missing got expected)
    end;
    got = expected
  in
  (* Both job counts run, whatever the first one gives. *)
  let at1 = matches 1 in
  let at2 = matches 2 in
  if not (at1 && at2) then exit 1;
  Printf.printf "suite_digest: %d lines match at jobs 1 and 2\n" (List.length expected)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--print" ] -> List.iter print_endline (lines ~jobs:1 (fun _ -> true))
  | [ _; "--all"; path ] -> check ~all:true path
  | [ _; path ] -> check ~all:false path
  | _ ->
      prerr_endline "usage: suite_digest.exe [--all] EXPECTED | --print";
      exit 2
