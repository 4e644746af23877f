open Matrix

type t = {
  source : Schema.t list;
  target : Schema.t list;
  st_tgds : Tgd.t list;
  t_tgds : Tgd.t list;
  egds : Egd.t list;
}

let target_schema t name =
  List.find_opt (fun s -> s.Schema.name = name) t.target

let derived t =
  List.filter
    (fun s -> not (List.exists (fun src -> src.Schema.name = s.Schema.name) t.source))
    t.target

let target_schema_exn t name =
  match target_schema t name with
  | Some s -> s
  | None -> invalid_arg ("Mapping.target_schema_exn: unknown relation " ^ name)

let derived_order t = List.map Tgd.target_relation t.t_tgds

let tgd_for t name =
  List.find_opt (fun tgd -> Tgd.target_relation tgd = name) t.t_tgds

let to_string t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "-- source schema S\n";
  List.iter
    (fun s -> Buffer.add_string buf ("--   " ^ Schema.to_string s ^ "\n"))
    t.source;
  Buffer.add_string buf "-- statement tgds (stratification order)\n";
  List.iteri
    (fun i tgd ->
      Buffer.add_string buf (Printf.sprintf "(%d) %s\n" (i + 1) (Tgd.to_string tgd)))
    t.t_tgds;
  Buffer.add_string buf "-- functionality egds\n";
  List.iter
    (fun egd -> Buffer.add_string buf ("    " ^ Egd.to_string egd ^ "\n"))
    t.egds;
  Buffer.contents buf
