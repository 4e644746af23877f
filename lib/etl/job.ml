type t = { name : string; flows : Flow.t list }

let make ~name flows = { name; flows }
