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

(* Depth-first over the producers of each relation; a relation met
   again while its own depth is still being worked out is on a cycle. *)
let levels (m : Mapping.t) =
  let producers = Hashtbl.create 32 in
  List.iter
    (fun tgd -> Hashtbl.add producers (Tgd.target_relation tgd) tgd)
    m.Mapping.t_tgds;
  let depth = Hashtbl.create 32 in
  let rec depth_of rel =
    match Hashtbl.find_opt depth rel with
    | Some (Some d) -> d
    | Some None -> raise (Cycle rel)
    | None ->
        let d =
          match Hashtbl.find_all producers rel with
          | [] -> 0
          | tgds ->
              Hashtbl.replace depth rel None;
              1
              + List.fold_left
                  (fun acc tgd ->
                    List.fold_left
                      (fun acc src -> max acc (depth_of src))
                      acc (Tgd.source_relations tgd))
                  0 tgds
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
      Error (Printf.sprintf "relation %s depends on itself" rel)

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
