open Matrix

type t = {
  name : string;
  min_params : int;
  max_params : int;
  param_first : bool;
  eval : float list -> float -> float;
}

let catalogue : (string, t) Hashtbl.t = Hashtbl.create 32

let register ~name ?(min_params = 0) ?(max_params = 0) ?(param_first = false)
    eval =
  if Hashtbl.mem catalogue name then
    invalid_arg ("Scalar_fn.register: duplicate function " ^ name);
  Hashtbl.replace catalogue name { name; min_params; max_params; param_first; eval }

let builtin name ?min_params ?max_params ?param_first eval =
  register ~name ?min_params ?max_params ?param_first eval

let () =
  builtin "ln" (fun _ x -> log x);
  builtin "log" ~max_params:1 ~param_first:true (fun ps x ->
      match ps with [ base ] -> log x /. log base | _ -> log x);
  builtin "exp" (fun _ x -> exp x);
  builtin "sqrt" (fun _ x -> sqrt x);
  builtin "abs" (fun _ x -> Float.abs x);
  builtin "round" (fun _ x -> Float.round x);
  builtin "floor" (fun _ x -> Float.floor x);
  builtin "ceil" (fun _ x -> Float.ceil x);
  builtin "sin" (fun _ x -> sin x);
  builtin "cos" (fun _ x -> cos x);
  builtin "tan" (fun _ x -> tan x);
  builtin "sign" (fun _ x -> if x > 0. then 1. else if x < 0. then -1. else 0.);
  builtin "incr" (fun _ x -> x +. 1.);
  builtin "recip" (fun _ x -> 1. /. x)

let find name = Hashtbl.find_opt catalogue name

let find_exn name =
  match find name with
  | Some f -> f
  | None -> invalid_arg ("Scalar_fn.find_exn: unknown function " ^ name)

let names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) catalogue []
  |> List.sort String.compare

let apply t ~params x =
  let n = List.length params in
  if n < t.min_params || n > t.max_params then None
  else
    let r = t.eval params x in
    if Float.is_nan r || Float.abs r = Float.infinity then None else Some r

let apply_value t ~params v =
  match Value.to_float v with
  | None -> Value.Null
  | Some x -> (
      match apply t ~params x with
      | Some r -> Value.of_float r
      | None -> Value.Null)
