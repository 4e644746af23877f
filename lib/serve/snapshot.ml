open Matrix

type status =
  | Healthy
  | Quarantined of Engine.Faults.failure_report option
  | Skipped of unit

type entry = {
  kind : Registry.kind;
  schema : Schema.t;
  current : Cube.t option;
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
  match List.rev applicable with (_, cube) :: _ -> Some cube | [] -> None

(* The engine never writes a cube it has installed, so the entry holds
   the engine's current cube and history versions themselves. *)
let read_entry engine ~status name =
  let det = Engine.Exlengine.determination engine in
  match (Engine.Determination.schema det name, Engine.Determination.kind det name)
  with
  | Some schema, Some kind ->
      let current = Engine.Exlengine.cube engine name in
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
      match read_entry engine ~status:(status_of name) name with
      | Some e -> Hashtbl.replace entries name e
      | None -> ())
    (Engine.Determination.cubes det);
  { snap_seq = 0; entries }

let publish ~prev ~touched engine =
  let entries = Hashtbl.copy prev.entries in
  List.iter
    (fun name ->
      let status =
        match Hashtbl.find_opt prev.entries name with
        | Some e -> e.status
        | None -> Healthy
      in
      match read_entry engine ~status name with
      | Some e -> Hashtbl.replace entries name e
      | None -> ())
    touched;
  { snap_seq = prev.snap_seq + 1; entries }
