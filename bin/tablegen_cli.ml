(* Offline gate-set table generator: enumerate a gate set's operators
   up to a T-depth, dedupe by canonical exact unitary, verify the count
   against the descriptor's closed form when known, and persist the
   result as a CRC-framed tgates-table/v1 file that the synthesis
   stack loads with --load-table.

   dune exec bin/tablegen_cli.exe -- --gate-set cliffordt --max-t 3 \
       --out cliffordt-t3.table --verify

   --verify reloads the written file and checks the round trip is
   entry-for-entry identical — for built-in Clifford+T that means
   bit-identical to Ma_table.build. *)

open Cmdliner

let entries_equal (a : Ma_table.t) (b : Ma_table.t) =
  a.Ma_table.max_t = b.Ma_table.max_t
  && Array.length a.Ma_table.entries = Array.length b.Ma_table.entries
  && Array.for_all2
       (fun (x : Ma_table.entry) (y : Ma_table.entry) ->
         x.Ma_table.seq = y.Ma_table.seq
         && Exact_u.equal x.Ma_table.u y.Ma_table.u
         && x.Ma_table.tcount = y.Ma_table.tcount
         && x.Ma_table.ccount = y.Ma_table.ccount)
       a.Ma_table.entries b.Ma_table.entries

let run gate_set max_t out verify =
  Cli.exit_code @@ fun () ->
  let gs = Cli.resolve_gate_set ~say:print_endline gate_set in
  if max_t < 0 then invalid_arg "--max-t must be >= 0";
  let t0 = Obs.Clock.elapsed_s () in
  let table =
    match Tablegen.generate gs ~max_t with
    | Ok t -> t
    | Error e -> invalid_arg ("generation failed: " ^ e)
  in
  Printf.printf "generated: %s max_t=%d — %d entries in %.3f s%s\n" gs.Gateset.name max_t
    (Array.length table.Ma_table.entries)
    (Obs.Clock.elapsed_s () -. t0)
    (match gs.Gateset.closed_count with
    | Some f -> Printf.sprintf " (closed form: %d, verified)" (f max_t)
    | None -> "");
  (match Tablegen.save ~path:out ~gate_set:gs.Gateset.name table with
  | Ok () -> Printf.printf "wrote    : %s (%s)\n" out Tablegen.schema
  | Error e -> invalid_arg ("save failed: " ^ e));
  if verify then begin
    match Tablegen.load out with
    | Error e -> invalid_arg ("verify: reload failed: " ^ e)
    | Ok (name, reloaded) ->
        if name <> gs.Gateset.name then
          invalid_arg
            (Printf.sprintf "verify: file names gate set %S, expected %S" name gs.Gateset.name);
        if not (entries_equal table reloaded) then
          invalid_arg "verify: reloaded table differs from the generated one";
        Printf.printf "verified : round trip is entry-for-entry identical\n"
  end;
  0

let max_t =
  Arg.(
    value & opt int 3
    & info [ "max-t" ] ~docv:"N" ~doc:"maximum non-Clifford count to enumerate to")

let out =
  Arg.(
    required
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"output tgates-table/v1 path (written atomically)")

let verify =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:"reload the written file and check the round trip is entry-for-entry identical")

let cmd =
  Cmd.v
    (Cmd.info "tgates-tablegen"
       ~doc:"Generate a gate-set operator table (tgates-table/v1) for the synthesis stack")
    Term.(const run $ Cli.gate_set ~tables:false $ max_t $ out $ verify)

let () = exit (Cmd.eval' cmd)
