type axis =
  | Roundtrip
  | Lint
  | Backends
  | Columnar
  | Optimize
  | Fusion
  | Incremental
  | Faults

let all =
  [
    Roundtrip;
    Lint;
    Backends;
    Columnar;
    Optimize;
    Fusion;
    Incremental;
    Faults;
  ]

let name = function
  | Roundtrip -> "roundtrip"
  | Lint -> "lint"
  | Backends -> "backends"
  | Columnar -> "columnar"
  | Optimize -> "optimize"
  | Fusion -> "fusion"
  | Incremental -> "incremental"
  | Faults -> "faults"

let axis_of_name s = List.find_opt (fun a -> name a = s) all

type fuse_mode = Safe | Unsafe | Off

let fuse_mode_name = function
  | Safe -> "safe"
  | Unsafe -> "unsafe"
  | Off -> "off"

let fuse_mode_of_name = function
  | "safe" -> Some Safe
  | "unsafe" -> Some Unsafe
  | "off" -> Some Off
  | _ -> None

let of_spec spec =
  match String.index_opt spec ':' with
  | None -> Option.map (fun a -> (a, Safe)) (axis_of_name spec)
  | Some i -> (
      let axis = String.sub spec 0 i in
      let mode = String.sub spec (i + 1) (String.length spec - i - 1) in
      match (axis_of_name axis, fuse_mode_of_name mode) with
      | Some a, Some m -> Some (a, m)
      | _ -> None)

let to_spec axis mode =
  match (axis, mode) with
  | Fusion, (Unsafe | Off) -> name axis ^ ":" ^ fuse_mode_name mode
  | _ -> name axis
