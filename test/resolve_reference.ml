(* The triviality test that [Circuit.exact_word] answers by rounding a
   gate's angles to the π/4 grid and looking the one candidate up, kept
   as a test oracle that assumes no grid: scan the whole depth-1 step-0
   table (the built-in one unless [table] is given) for the cheapest
   ≤1-T operator within 1e-6 of the gate's matrix.  This is the
   engine's exact-word lookup as it was before any filter, so [resolve]
   and [exact_word] must answer every gate exactly when and as this
   does. *)

let exact_word ?(table = Ma_table.get 1) g =
  let m = Qgate.to_mat2 g in
  let cost i = (Ma_table.tcount table i, Ma_table.ccount table i) in
  let best = ref None in
  for i = 0 to Ma_table.size table - 1 do
    if Mat2.distance m (Ma_table.mat table i) < 1e-6 then
      match !best with Some b when cost b <= cost i -> () | _ -> best := Some i
  done;
  Option.map (Ma_table.word table) !best

(* The triviality test [Circuit.nontrivial_rotation] ran before it
   became [Circuit.exact_word] over the Clifford+T table: an axis
   rotation within 1e-9 of a π/4 step, a U3 within 1e-7 of a ≤1-T
   operator.  The two rules part only for rotations between 1e-9 and
   about 2.5e-6 steps from the grid, which no suite circuit holds. *)
let nontrivial = function
  | Qgate.Rx a | Qgate.Ry a | Qgate.Rz a ->
      let q = a /. (Float.pi /. 4.0) in
      Float.abs (q -. Float.round q) > 1e-9
  | Qgate.U3 _ as g ->
      let m = Qgate.to_mat2 g in
      let table = Ma_table.get 1 in
      not (List.exists (fun i -> Mat2.distance m (Ma_table.mat table i) < 1e-7) (List.init (Ma_table.size table) Fun.id))
  | _ -> false
