type kind = Elementary | Derived

let kind_to_string = function
  | Elementary -> "elementary"
  | Derived -> "derived"

type entry = { kind : kind; cube : Cube.t }
type t = (string, entry) Hashtbl.t

let create () = Hashtbl.create 32
let add t kind cube = Hashtbl.replace t (Cube.name cube) { kind; cube }
let declare t kind schema = add t kind (Cube.create schema)
let find t name = Option.map (fun e -> e.cube) (Hashtbl.find_opt t name)

let find_exn t name =
  match find t name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Registry.find_exn: no cube %S" name)

let kind_of t name = Option.map (fun e -> e.kind) (Hashtbl.find_opt t name)
let remove t name = Hashtbl.remove t name

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

let names_of_kind t kind =
  Hashtbl.fold (fun k e acc -> if e.kind = kind then k :: acc else acc) t []
  |> List.sort String.compare

let elementary_names t = names_of_kind t Elementary
let derived_names t = names_of_kind t Derived

let copy t =
  let out = create () in
  Hashtbl.iter
    (fun k e -> Hashtbl.replace out k { e with cube = Cube.copy e.cube })
    t;
  out

let of_sources t schemas =
  let out = create () in
  List.iter
    (fun schema ->
      add out Elementary
        (match find t schema.Schema.name with
        | Some c when Schema.equal (Cube.schema c) schema -> c
        | Some c -> Cube.with_schema schema c
        | None -> Cube.create schema))
    schemas;
  out

let equal_data ?eps a b =
  names a = names b
  && List.for_all
       (fun n -> Cube.equal_data ?eps (find_exn a n) (find_exn b n))
       (names a)

let diff ?eps ~names expected got =
  List.filter_map
    (fun name ->
      match (find expected name, find got name) with
      | None, None -> None
      | Some _, None -> Some ("missing cube " ^ name)
      | None, Some _ -> Some ("unexpected cube " ^ name)
      | Some e, Some g ->
          if Cube.equal_data ?eps e g then None
          else
            Some
              (Printf.sprintf "cube %s differs: %s" name
                 (String.concat "; " (Cube.diff_data ?eps e g))))
    names
