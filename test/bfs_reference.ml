(* The generic closure that [Ma_table.get_for] runs for a [Bfs] gate
   set, as it stood when tables were generated offline, kept as a test
   oracle: each candidate's word appended in full ([seq @ [g]]) before
   its operator is checked against [visited], level lists concatenated,
   the lookup and offsets from [Ma_reference.of_entries]. *)

(* Generic closure for arbitrary sub-alphabets: Dijkstra with the
   non-Clifford count as the distance.  Level 0 is the Clifford closure
   of the identity; level k+1 seeds every level-k operator with each
   non-Clifford generator and re-closes under the Cliffords.  The state
   space at depth m is finite, so this terminates, and level order
   makes every recorded word non-Clifford-minimal. *)
let bfs_generate (gs : Gateset.t) ~max_t =
  let cliffords = List.filter Ctgate.is_clifford gs.Gateset.generators in
  let non_cliffords =
    List.filter (fun g -> not (Ctgate.is_clifford g)) gs.Gateset.generators
  in
  let visited = Exact_u.Table.create 4096 in
  let levels = Array.make (max_t + 1) [] in
  (* Close the frontier under Clifford generators (FIFO = shortest word
     first within the level); returns newly visited (seq, u) pairs in
     discovery order. *)
  let close_level k frontier =
    let q = Queue.create () in
    let out = ref [] in
    let admit (seq, u) =
      let key = Exact_u.canonical_key u in
      if not (Exact_u.Table.mem visited key) then begin
        Exact_u.Table.add visited key ();
        out := (seq, u) :: !out;
        Queue.add (seq, u) q
      end
    in
    List.iter admit frontier;
    while not (Queue.is_empty q) do
      let seq, u = Queue.pop q in
      List.iter (fun g -> admit (seq @ [ g ], Exact_u.mul_gate u g)) cliffords
    done;
    levels.(k) <- List.rev !out
  in
  close_level 0 [ ([], Exact_u.identity) ];
  for k = 1 to max_t do
    let seeds =
      List.concat_map
        (fun (seq, u) ->
          List.map
            (fun g -> (seq @ [ g ], Exact_u.mul_gate u g))
            non_cliffords)
        levels.(k - 1)
    in
    close_level k seeds
  done;
  let entry k (seq, u) =
    {
      Ma_reference.seq;
      u;
      mat = Exact_u.to_mat2 u;
      tcount = k;
      ccount = Ctgate.clifford_count seq;
    }
  in
  let entries =
    Array.of_list (List.concat (List.mapi (fun k l -> List.map (entry k) l) (Array.to_list levels)))
  in
  Ma_reference.of_entries ~max_t entries
