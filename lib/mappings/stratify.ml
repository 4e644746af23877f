let check (m : Mapping.t) =
  let known = Hashtbl.create 32 in
  List.iter
    (fun s -> Hashtbl.replace known s.Matrix.Schema.name ())
    m.Mapping.source;
  let rec loop = function
    | [] -> Ok ()
    | tgd :: rest ->
        let target = Tgd.target_relation tgd in
        let missing =
          List.filter
            (fun r -> not (Hashtbl.mem known r))
            (Tgd.source_relations tgd)
        in
        if missing <> [] then
          Error
            (Printf.sprintf
               "tgd for %s uses relation(s) %s before they are defined" target
               (String.concat ", " missing))
        else if Hashtbl.mem known target then
          Error (Printf.sprintf "relation %s is defined twice" target)
        else begin
          Hashtbl.replace known target ();
          loop rest
        end
  in
  loop m.Mapping.t_tgds

exception Cycle of string

(* The tgd writing each relation: one per relation, and only a relation
   the mapping declares. *)
let writers (m : Mapping.t) =
  let declared = Hashtbl.create 32 in
  List.iter
    (fun s -> Hashtbl.replace declared s.Matrix.Schema.name ())
    m.Mapping.target;
  let writer = Hashtbl.create 32 in
  let rec loop = function
    | [] -> Ok writer
    | tgd :: rest ->
        let target = Tgd.target_relation tgd in
        if Hashtbl.mem writer target then
          Error (Printf.sprintf "relation %s is defined twice" target)
        else if not (Hashtbl.mem declared target) then
          Error
            (Printf.sprintf "relation %s is written but the mapping does not declare it"
               target)
        else begin
          Hashtbl.replace writer target tgd;
          loop rest
        end
  in
  loop m.Mapping.t_tgds

(* Depth-first over the writer of each relation; a relation met again
   while its own depth is still being worked out is on a cycle. *)
let levels (m : Mapping.t) =
  Result.bind (writers m) (fun writer ->
      let depth = Hashtbl.create 32 in
      let rec depth_of rel =
        match Hashtbl.find_opt depth rel with
        | Some (Some d) -> d
        | Some None -> raise (Cycle rel)
        | None ->
            let d =
              match Hashtbl.find_opt writer rel with
              | None -> 0
              | Some tgd ->
                  Hashtbl.replace depth rel None;
                  1
                  + List.fold_left
                      (fun acc src -> max acc (depth_of src))
                      0 (Tgd.source_relations tgd)
            in
            Hashtbl.replace depth rel (Some d);
            d
      in
      match
        List.map
          (fun tgd ->
            let t = Tgd.target_relation tgd in
            (t, depth_of t))
          m.Mapping.t_tgds
      with
      | lv -> Ok lv
      | exception Cycle rel ->
          Error (Printf.sprintf "relation %s depends on itself" rel))

let strata (m : Mapping.t) =
  Result.map
    (fun lv ->
      let max_level = List.fold_left (fun acc (_, l) -> max acc l) 0 lv in
      let groups = Array.make (max_level + 1) [] in
      List.iter2
        (fun tgd (_, level) -> groups.(level) <- tgd :: groups.(level))
        m.Mapping.t_tgds lv;
      List.filter_map
        (function [] -> None | group -> Some (List.rev group))
        (Array.to_list groups))
    (levels m)
