module B = Bigint

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89; 97 ]

(* Witness set proven deterministic for n < 3_317_044_064_679_887_385_961_981. *)
let deterministic_witnesses = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let miller_rabin_witness n d s a =
  (* Returns true when [a] proves n composite. *)
  let a = B.erem a n in
  if B.is_zero a then false
  else begin
    let x = B.powmod a d n in
    let n1 = B.sub n B.one in
    if B.equal x B.one || B.equal x n1 then false
    else begin
      let rec squarings i x =
        if i >= s - 1 then true
        else begin
          let x = B.erem (B.mul x x) n in
          if B.equal x n1 then false else squarings (i + 1) x
        end
      in
      squarings 0 x
    end
  end

let is_probable_prime n =
  if B.compare n B.two < 0 then false
  else if List.exists (fun p -> B.equal n (B.of_int p)) small_primes then true
  else if List.exists (fun p -> B.is_zero (B.erem n (B.of_int p))) small_primes then false
  else begin
    (* n - 1 = d * 2^s with d odd *)
    let n1 = B.sub n B.one in
    let rec split d s = if B.is_even d then split (B.shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n1 0 in
    let deterministic = B.num_bits n <= 81 in
    let witnesses =
      if deterministic then List.map B.of_int deterministic_witnesses
      else List.init 25 (fun _ -> B.add B.two (B.random_below (B.sub n (B.of_int 4))))
    in
    not (List.exists (miller_rabin_witness n d s) witnesses)
  end

let pollard_rho ?(max_iters = 200_000) n =
  if B.is_even n then Some B.two
  else begin
    (* Brent's variant. *)
    let rec attempt seed =
      if seed > 20 then None
      else begin
        let c = B.add B.one (B.random_below (B.sub n B.two)) in
        let f x = B.erem (B.add (B.mul x x) c) n in
        let y = ref (B.add B.two (B.random_below (B.sub n (B.of_int 3)))) in
        let g = ref B.one in
        let r = ref 1 and iters = ref 0 in
        let x = ref !y in
        let stop = ref false in
        while B.equal !g B.one && not !stop do
          x := !y;
          for _ = 1 to !r do
            y := f !y
          done;
          let k = ref 0 in
          while !k < !r && B.equal !g B.one && not !stop do
            let ys = ref !y in
            let q = ref B.one in
            let m = min 64 (!r - !k) in
            for _ = 1 to m do
              y := f !y;
              q := B.erem (B.mul !q (B.abs (B.sub !x !y))) n
            done;
            g := B.gcd !q n;
            if B.equal !g n then begin
              (* Backtrack one step at a time. *)
              g := B.one;
              let again = ref true in
              while !again do
                ys := f !ys;
                let d = B.gcd (B.abs (B.sub !x !ys)) n in
                if not (B.equal d B.one) then begin
                  g := d;
                  again := false
                end
              done
            end;
            k := !k + m;
            iters := !iters + m;
            if !iters > max_iters then stop := true
          done;
          r := !r * 2
        done;
        if (not (B.equal !g B.one)) && not (B.equal !g n) then Some !g else attempt (seed + 1)
      end
    in
    attempt 0
  end

let factor ?(budget = 200_000) n =
  if B.compare n B.one < 0 then invalid_arg "Ntheory.factor: input must be >= 1";
  let found : (string, B.t * int ref) Hashtbl.t = Hashtbl.create 8 in
  let record p =
    let key = B.to_string p in
    match Hashtbl.find_opt found key with
    | Some (_, count) -> incr count
    | None -> Hashtbl.add found key (p, ref 1)
  in
  let rec strip_small n p =
    if B.is_zero (B.erem n p) then begin
      record p;
      strip_small (B.div n p) p
    end
    else n
  in
  let n = List.fold_left (fun n p -> strip_small n (B.of_int p)) n small_primes in
  (* Trial division a little further: catches the typical smooth part. *)
  let n = ref n in
  let d = ref 101 in
  while !d < 10_000 && B.compare (B.of_int (!d * !d)) !n <= 0 do
    n := strip_small !n (B.of_int !d);
    d := !d + 2
  done;
  let rec crack n ok =
    if not ok then false
    else if B.equal n B.one then true
    else if is_probable_prime n then begin
      record n;
      true
    end
    else if B.is_square n then begin
      let r = B.sqrt n in
      crack r true && crack r true
    end
    else
      match pollard_rho ~max_iters:budget n with
      | None -> false
      | Some f -> crack f true && crack (B.div n f) true
  in
  if crack !n true then begin
    let items = Hashtbl.fold (fun _ (p, c) acc -> (p, !c) :: acc) found [] in
    Some (List.sort (fun (a, _) (b, _) -> B.compare a b) items)
  end
  else None

let rec jacobi a n =
  (* (a/n) for odd positive n. *)
  let a = B.erem a n in
  if B.is_zero a then if B.equal n B.one then 1 else 0
  else begin
    (* Pull out factors of two. *)
    let rec twos a acc =
      if B.is_even a then begin
        let nmod8 = B.to_int_exn (B.erem n (B.of_int 8)) in
        let flip = if nmod8 = 3 || nmod8 = 5 then -1 else 1 in
        twos (B.shift_right a 1) (acc * flip)
      end
      else (a, acc)
    in
    let a, s = twos a 1 in
    if B.equal a B.one then s
    else begin
      let amod4 = B.to_int_exn (B.erem a (B.of_int 4)) in
      let nmod4 = B.to_int_exn (B.erem n (B.of_int 4)) in
      let flip = if amod4 = 3 && nmod4 = 3 then -1 else 1 in
      s * flip * jacobi n a
    end
  end

let sqrt_mod a p =
  let a = B.erem a p in
  if B.is_zero a then Some B.zero
  else if B.equal p B.two then Some a
  else if jacobi a p <> 1 then None
  else begin
    let pmod4 = B.to_int_exn (B.erem p (B.of_int 4)) in
    if pmod4 = 3 then Some (B.powmod a (B.div (B.add p B.one) (B.of_int 4)) p)
    else begin
      (* Tonelli–Shanks.  p - 1 = q * 2^s, q odd. *)
      let rec split q s = if B.is_even q then split (B.shift_right q 1) (s + 1) else (q, s) in
      let q, s = split (B.sub p B.one) 0 in
      (* Find a non-residue z. *)
      let rec find_z z = if jacobi z p = -1 then z else find_z (B.add z B.one) in
      let z = find_z B.two in
      let m = ref s in
      let c = ref (B.powmod z q p) in
      let t = ref (B.powmod a q p) in
      let r = ref (B.powmod a (B.div (B.add q B.one) B.two) p) in
      let result = ref None in
      let running = ref true in
      while !running do
        if B.equal !t B.one then begin
          result := Some !r;
          running := false
        end
        else begin
          (* Least i with t^(2^i) = 1. *)
          let rec least_i i t2 =
            if B.equal t2 B.one then i else least_i (i + 1) (B.erem (B.mul t2 t2) p)
          in
          let i = least_i 0 !t in
          if i = !m then begin
            result := None;
            running := false
          end
          else begin
            let b = ref !c in
            for _ = 1 to !m - i - 1 do
              b := B.erem (B.mul !b !b) p
            done;
            r := B.erem (B.mul !r !b) p;
            c := B.erem (B.mul !b !b) p;
            t := B.erem (B.mul !t !c) p;
            m := i
          end
        end
      done;
      !result
    end
  end
