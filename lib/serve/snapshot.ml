open Matrix

type status =
  | Healthy
  | Quarantined of Engine.Faults.failure_report option
  | Skipped of unit

(* ----- views ----- *)

module Values = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module Hashes = Map.Make (Int)

(* A copy of an elementary cube taken at some commit.  It is never
   mutated, so every snapshot built on it shares it, and its posting
   lists: one table per dimension, built on the first filtered read of
   that dimension.  The slots are [Atomic], not [Lazy]: reader threads
   force them concurrently, and a concurrent [Lazy.force] can raise
   [Lazy.Undefined].  Two readers racing on an empty slot both build
   the same table and one of them wins.  A posting list holds the
   base's facts with one value at one dimension, in no particular
   order. *)
type base = {
  cube : Cube.t;
  postings : (Tuple.t * Value.t) array Values.t option Atomic.t array;
}

(* An elementary cube as of one commit: the base plus every key revised
   since it was taken, bound to its value at this commit ([Null] when
   removed).  The overlay is a persistent map keyed by [Tuple.hash], so
   the next commit extends it in O(log n) per revised key and shares
   the rest. *)
type layered = {
  base : base;
  overlay : (Tuple.t * Value.t) list Hashes.t;
  revised : int;  (** keys in [overlay] *)
  cardinality : int;
}

type view = Plain of Cube.t | Layered of layered

(* The overlay is folded into a fresh base once it holds more than one
   key per [fold_ratio] facts of its base.  A fold copies the current
   cube, at most (fold_ratio + 1) x the keys revised since the last
   fold, so a commit copies O(1) facts per revised key, amortized. *)
let fold_ratio = 8

let fresh_base cube =
  let copy = Cube.copy cube in
  Obs.count ~n:(Cube.cardinality copy) "serve.snapshot_facts_copied";
  let arity = Schema.arity (Cube.schema copy) in
  Layered
    {
      base = { cube = copy; postings = Array.init arity (fun _ -> Atomic.make None) };
      overlay = Hashes.empty;
      revised = 0;
      cardinality = Cube.cardinality copy;
    }

let rec lookup key = function
  | [] -> None
  | (k, v) :: rest -> if Tuple.equal k key then Some v else lookup key rest

let overlay_find overlay h key =
  match Hashes.find_opt h overlay with
  | None -> None
  | Some bucket -> lookup key bucket

(* Rebind each revised key to its value in the engine's [cube] now. *)
let revise l cube keys =
  let l =
    List.fold_left
      (fun l key ->
        let h = Tuple.hash key in
        let bucket = Option.value ~default:[] (Hashes.find_opt h l.overlay) in
        let before = lookup key bucket in
        let was =
          match before with
          | Some v -> not (Value.is_null v)
          | None -> Cube.mem l.base.cube key
        in
        let now = Option.value ~default:Value.Null (Cube.find cube key) in
        let bucket =
          (key, now) :: List.filter (fun (k, _) -> not (Tuple.equal k key)) bucket
        in
        {
          l with
          overlay = Hashes.add h bucket l.overlay;
          revised = (if Option.is_none before then l.revised + 1 else l.revised);
          cardinality =
            l.cardinality + Bool.to_int (not (Value.is_null now)) - Bool.to_int was;
        })
      l keys
  in
  if l.revised * fold_ratio > Cube.cardinality l.base.cube then fresh_base cube
  else Layered l

let cardinality = function
  | Plain cube -> Cube.cardinality cube
  | Layered l -> l.cardinality

let postings base dim =
  let slot = base.postings.(dim) in
  match Atomic.get slot with
  | Some table -> table
  | None ->
      let lists = Values.create 16 in
      Cube.iter
        (fun k v ->
          let x = Tuple.get k dim in
          let facts = Option.value ~default:[] (Values.find_opt lists x) in
          Values.replace lists x ((k, v) :: facts))
        base.cube;
      let table = Values.create (Values.length lists) in
      Values.iter (fun x facts -> Values.replace table x (Array.of_list facts)) lists;
      Atomic.set slot (Some table);
      table

let matches filters key =
  List.for_all (fun (i, v) -> Value.equal (Tuple.get key i) v) filters

(* A filtered read of a layered view takes the shortest posting list
   among the filtered dimensions and keeps the smallest of its facts
   that the overlay does not rebind (checked only for facts small
   enough to make the cut), then merges in the overlay's live matching
   keys: it examines that list and the overlay, never the whole base. *)
let select ?limit ~filters view =
  match view with
  | Plain cube ->
      Obs.count ~n:(Cube.cardinality cube) "serve.slice_keys_examined";
      Cube.select ?limit (matches filters) cube
  | Layered l ->
      let shortest =
        List.fold_left
          (fun best ((i, v) as filter) ->
            let facts =
              Option.value ~default:[||] (Values.find_opt (postings l.base i) v)
            in
            match best with
            | Some (_, b) when Array.length b <= Array.length facts -> best
            | _ -> Some (filter, facts))
          None filters
      in
      let from_base =
        match shortest with
        | Some (_, facts) -> Array.length facts
        | None -> Cube.cardinality l.base.cube
      in
      Obs.count ~n:(from_base + l.revised) "serve.slice_keys_examined";
      let admit =
        if Hashes.is_empty l.overlay then None
        else Some (fun k -> Option.is_none (overlay_find l.overlay (Tuple.hash k) k))
      in
      let base_rows =
        Cube.smallest ?limit ?admit ~bound:from_base (fun emit ->
            match shortest with
            | Some (filter, facts) ->
                let others = List.filter (fun f -> f != filter) filters in
                Array.iter (fun (k, v) -> if matches others k then emit k v) facts
            | None -> Cube.iter emit l.base.cube)
      in
      if Hashes.is_empty l.overlay then base_rows
      else
        let revised =
          Hashes.fold
            (fun _ bucket acc ->
              List.fold_left
                (fun acc (k, v) ->
                  if (not (Value.is_null v)) && matches filters k then (k, v) :: acc
                  else acc)
                acc bucket)
            l.overlay []
        in
        let emit_all rows emit = List.iter (fun (k, v) -> emit k v) rows in
        Cube.smallest ?limit
          ~bound:(List.length base_rows + List.length revised)
          (fun emit ->
            emit_all base_rows emit;
            emit_all revised emit)

let to_cube = function
  | Plain cube -> cube
  | Layered l when Hashes.is_empty l.overlay -> l.base.cube
  | Layered l ->
      let cube = Cube.copy l.base.cube in
      Hashes.iter (fun _ -> List.iter (fun (k, v) -> Cube.set cube k v)) l.overlay;
      cube

(* ----- snapshots ----- *)

type entry = {
  kind : Registry.kind;
  schema : Schema.t;
  current : view option;
  versions : (Calendar.Date.t * Cube.t) list;
  status : status;
}

type t = { snap_seq : int; entries : (string, entry) Hashtbl.t }

let seq t = t.snap_seq

let find t name = Hashtbl.find_opt t.entries name

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.entries []
  |> List.sort String.compare

let as_of entry date =
  let applicable =
    List.filter
      (fun (d, _) -> Calendar.Date.compare d date <= 0)
      entry.versions
  in
  match List.rev applicable with (_, cube) :: _ -> Some (Plain cube) | [] -> None

(* Elementary cubes are revised in place by the engine's update path,
   so the snapshot owns a base copy and overlays the keys each commit
   revised ([revised name]); derived cubes are rebuilt as fresh objects
   on every recomputation and history versions are copied on store, so
   sharing those references is safe. *)
let read_entry ?prev engine ~status ~revised name =
  let det = Engine.Exlengine.determination engine in
  match (Engine.Determination.schema det name, Engine.Determination.kind det name)
  with
  | Some schema, Some kind ->
      let current =
        match Engine.Exlengine.cube engine name with
        | Some c when kind = Registry.Elementary -> (
            match prev with
            | Some (Layered l) -> Some (revise l c (revised name))
            | Some (Plain _) | None -> Some (fresh_base c))
        | other -> Option.map (fun c -> Plain c) other
      in
      let versions =
        Engine.Historicity.versions (Engine.Exlengine.history engine) name
      in
      Some { kind; schema; current; versions; status }
  | _ -> None

let statuses report =
  match report with
  | None -> fun _ -> Healthy
  | Some (r : Engine.Dispatcher.report) ->
      fun name ->
        if List.mem name r.Engine.Dispatcher.quarantined then
          Quarantined
            (List.find_opt
               (fun (f : Engine.Faults.failure_report) ->
                 f.Engine.Faults.f_resolution = Engine.Faults.Quarantined
                 && List.mem name f.Engine.Faults.f_cubes)
               r.Engine.Dispatcher.failures)
        else if List.mem name r.Engine.Dispatcher.skipped then Skipped ()
        else Healthy

let capture ?report engine =
  let det = Engine.Exlengine.determination engine in
  let status_of = statuses report in
  let entries = Hashtbl.create 32 in
  List.iter
    (fun name ->
      match
        read_entry engine ~status:(status_of name) ~revised:(fun _ -> []) name
      with
      | Some e -> Hashtbl.replace entries name e
      | None -> ())
    (Engine.Determination.cubes det);
  { snap_seq = 0; entries }

let publish ~prev ~revised ~touched engine =
  let entries = Hashtbl.copy prev.entries in
  let revised name =
    List.filter_map
      (fun (u : Engine.Update.t) ->
        if u.Engine.Update.cube = name then Some (Tuple.of_list u.Engine.Update.key)
        else None)
      revised
  in
  List.iter
    (fun name ->
      let status, prev =
        match Hashtbl.find_opt prev.entries name with
        | Some e -> (e.status, e.current)
        | None -> (Healthy, None)
      in
      match read_entry ?prev engine ~status ~revised name with
      | Some e -> Hashtbl.replace entries name e
      | None -> ())
    touched;
  { snap_seq = prev.snap_seq + 1; entries }
