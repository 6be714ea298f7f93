(* The triviality test that [Stream_compile.resolve] runs behind its O(1)
   Rz filter, kept without the filter as a test oracle: scan the whole
   depth-1 step-0 table for the cheapest ≤1-T operator within 1e-6 of
   the gate's matrix.  This is the engine's exact-word lookup as it was
   before the filter, so [resolve] must answer every gate exactly when
   and as this does. *)

let exact_word ?(gate_set = "cliffordt") g =
  let table = Ma_table.get_for ~gate_set 1 in
  let m = Qgate.to_mat2 g in
  let best = ref None in
  Array.iter
    (fun (e : Ma_table.entry) ->
      if Mat2.distance m e.Ma_table.mat < 1e-6 then
        match !best with
        | Some (b : Ma_table.entry) when (b.tcount, b.ccount) <= (e.tcount, e.ccount) -> ()
        | _ -> best := Some e)
    table.Ma_table.entries;
  Option.map (fun (e : Ma_table.entry) -> e.Ma_table.seq) !best
