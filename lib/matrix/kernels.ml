(* ----- mixed-radix key packing ----- *)

(* Combine per-column codes into one int key per row:
   key = c0 + r0*(c1 + r1*(c2 + ...)), exact (no collisions) because
   each code is < its radix.  [None] when the combined key space would
   overflow 62-bit ints. *)
let pack ~nrows (cols : int array array) (radices : int array) =
  let ncols = Array.length cols in
  if ncols = 0 then None
  else
    let max_key = max_int / 2 in
    let space = ref 1 in
    let overflow = ref false in
    Array.iter
      (fun radix ->
        if radix <= 0 then overflow := true
        else if !space > max_key / radix then overflow := true
        else space := !space * radix)
      radices;
    if !overflow then None
    else begin
      let keys = Array.make nrows 0 in
      for r = 0 to nrows - 1 do
        let key = ref 0 and stride = ref 1 and poisoned = ref false in
        for i = 0 to ncols - 1 do
          let c = cols.(i).(r) in
          if c < 0 then poisoned := true
          else begin
            key := !key + (c * !stride);
            stride := !stride * radices.(i)
          end
        done;
        keys.(r) <- (if !poisoned then -1 else !key)
      done;
      Some keys
    end

let dense_keys ~nrows (cols : int array array) (radices : int array) =
  if Array.length cols = 0 then Array.make nrows 0
  else
    match pack ~nrows cols radices with
    | Some keys -> keys
    | None ->
        let ncols = Array.length cols in
        let tbl : (int array, int) Hashtbl.t = Hashtbl.create (max 64 nrows) in
        let next = ref 0 in
        Array.init nrows (fun r ->
            let key = Array.init ncols (fun i -> cols.(i).(r)) in
            if Array.exists (fun c -> c < 0) key then -1
            else
              match Hashtbl.find_opt tbl key with
              | Some id -> id
              | None ->
                  let id = !next in
                  incr next;
                  Hashtbl.replace tbl key id;
                  id)

let joined_keys ~(build_cols : int array array) ~(probe_cols : int array array)
    ~nbuild ~nprobe (radices : int array) =
  match (pack ~nrows:nbuild build_cols radices, pack ~nrows:nprobe probe_cols radices)
  with
  | Some bk, Some pk -> (bk, pk)
  | _ ->
      let ncols = Array.length build_cols in
      let tbl : (int array, int) Hashtbl.t = Hashtbl.create (max 64 nbuild) in
      let next = ref 0 in
      let bk =
        Array.init nbuild (fun r ->
            let key = Array.init ncols (fun i -> build_cols.(i).(r)) in
            if Array.exists (fun c -> c < 0) key then -1
            else
              match Hashtbl.find_opt tbl key with
              | Some id -> id
              | None ->
                  let id = !next in
                  incr next;
                  Hashtbl.replace tbl key id;
                  id)
      in
      let pk =
        Array.init nprobe (fun r ->
            let key = Array.init ncols (fun i -> probe_cols.(i).(r)) in
            if Array.exists (fun c -> c < 0) key then -1
            else Option.value ~default:(-1) (Hashtbl.find_opt tbl key))
      in
      (bk, pk)

(* ----- grouping ----- *)

type groups = { gids : int array; n_groups : int; rep_rows : int array }

let group (keys : int array) =
  let nrows = Array.length keys in
  let ids : (int, int) Hashtbl.t = Hashtbl.create (max 16 (nrows / 4)) in
  let gids = Array.make nrows 0 in
  let reps = ref [] in
  let n = ref 0 in
  for r = 0 to nrows - 1 do
    let key = keys.(r) in
    match Hashtbl.find_opt ids key with
    | Some g -> gids.(r) <- g
    | None ->
        let g = !n in
        Hashtbl.replace ids key g;
        gids.(r) <- g;
        reps := r :: !reps;
        incr n
  done;
  let n_groups = !n in
  let rep_rows = Array.make (max 1 n_groups) 0 in
  List.iter (fun r -> rep_rows.(gids.(r)) <- r) !reps;
  { gids; n_groups; rep_rows }

let segment { gids; n_groups; _ } (values : float array) =
  let nrows = Array.length gids in
  let counts = Array.make (n_groups + 1) 0 in
  for r = 0 to nrows - 1 do
    let g = gids.(r) in
    counts.(g) <- counts.(g) + 1
  done;
  let offsets = Array.make (n_groups + 1) 0 in
  for g = 1 to n_groups do
    offsets.(g) <- offsets.(g - 1) + counts.(g - 1)
  done;
  let cursor = Array.copy offsets in
  let data = Array.make nrows 0. in
  for r = 0 to nrows - 1 do
    let g = gids.(r) in
    data.(cursor.(g)) <- values.(r);
    cursor.(g) <- cursor.(g) + 1
  done;
  (offsets, data)

(* ----- int-keyed hash join ----- *)

let hash_join ~(build_keys : int array) ~(probe_keys : int array)
    ?(on_probe = fun _ _ -> ()) f =
  let nbuild = Array.length build_keys in
  let tbl : (int, int list) Hashtbl.t = Hashtbl.create (max 16 nbuild) in
  for br = 0 to nbuild - 1 do
    let k = build_keys.(br) in
    if k >= 0 then
      Hashtbl.replace tbl k
        (br :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  done;
  for pr = 0 to Array.length probe_keys - 1 do
    let k = probe_keys.(pr) in
    if k >= 0 then begin
      let bucket = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
      on_probe pr (List.length bucket);
      List.iter (fun br -> f pr br) bucket
    end
    else on_probe pr 0
  done

(* ----- key order ----- *)

(* The values are decoded once and their codes merge-sorted by value. *)
let ranks dict =
  let values = Array.init (Dict.size dict) (Dict.decode dict) in
  let by_value = Array.init (Array.length values) Fun.id in
  Array.stable_sort (fun a b -> Value.compare values.(a) values.(b)) by_value;
  let rank = Array.make (Array.length by_value) 0 in
  Array.iteri (fun i c -> rank.(c) <- i) by_value;
  rank

(* A stable counting sort by column-0 rank, then a stable comparison
   sort by the later columns inside each run that ties on column 0. *)
let sort_rows (columns : (int array * int array) Lazy.t array) (sel : int array) =
  let n = Array.length sel in
  if Array.length columns = 0 then (Array.init n Fun.id, 0)
  else begin
    let codes0, rank0 = Lazy.force columns.(0) in
    let d0 = Array.length rank0 in
    let start = Array.make (d0 + 1) 0 in
    for j = 0 to n - 1 do
      let k = rank0.(codes0.(sel.(j))) + 1 in
      start.(k) <- start.(k) + 1
    done;
    for k = 1 to d0 do
      start.(k) <- start.(k) + start.(k - 1)
    done;
    let sorted = Array.make n 0 in
    for j = 0 to n - 1 do
      let k = rank0.(codes0.(sel.(j))) in
      sorted.(start.(k)) <- j;
      start.(k) <- start.(k) + 1
    done;
    (* [start.(k)] now ends rank [k]'s run. *)
    let rec compare_from pos a b =
      if pos = Array.length columns then 0
      else
        let codes, rank = Lazy.force columns.(pos) in
        match Int.compare rank.(codes.(a)) rank.(codes.(b)) with
        | 0 -> compare_from (pos + 1) a b
        | c -> c
    in
    let compares = ref 0 in
    let by_later a b =
      incr compares;
      compare_from 1 sel.(a) sel.(b)
    in
    for k = 0 to d0 - 1 do
      let off = if k = 0 then 0 else start.(k - 1) in
      let len = start.(k) - off in
      if len > 1 then begin
        let run = Array.sub sorted off len in
        Array.stable_sort by_later run;
        Array.blit run 0 sorted off len
      end
    done;
    (sorted, !compares)
  end

let read_float floats r = function
  | Value.Int i ->
      floats.(r) <- float_of_int i;
      true
  | Value.Float f ->
      floats.(r) <- f;
      true
  | Value.Bool b ->
      floats.(r) <- (if b then 1. else 0.);
      true
  | Value.(Null | String _ | Date _ | Period _) -> false
