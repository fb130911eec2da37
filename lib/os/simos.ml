(* A miniature multi-user Unix, just enough to give SFS its cast of
   characters: users with uids/gids, credentials attached to processes,
   and superuser semantics.

   The paper's design leans on this separation: "Servers grant access
   to users, not to clients" (section 2.1.1), agents are per-user
   unprivileged processes (section 2.3), and the AFS cache-sharing
   conundrum (section 5.1) is precisely about two local users who
   distrust each other. *)

type user = { name : string; uid : int; gid : int; groups : int list }

type cred = { cred_uid : int; cred_gid : int; cred_groups : int list }

let cred_of_user (u : user) : cred = { cred_uid = u.uid; cred_gid = u.gid; cred_groups = u.groups }

let root_user = { name = "root"; uid = 0; gid = 0; groups = [ 0 ] }
let anonymous_cred = { cred_uid = -2; cred_gid = -2; cred_groups = [] }

let is_superuser (c : cred) = c.cred_uid = 0
let is_anonymous (c : cred) = c.cred_uid = -2

let in_group (c : cred) (gid : int) = c.cred_gid = gid || List.mem gid c.cred_groups

type t = { mutable users : user list; mutable next_uid : int }

let create () : t = { users = [ root_user ]; next_uid = 1000 }

let add_user (t : t) (name : string) : user =
  if List.exists (fun u -> u.name = name) t.users then invalid_arg ("Simos.add_user: duplicate " ^ name);
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  let u = { name; uid; gid = uid; groups = [ uid ] } in
  t.users <- u :: t.users;
  u

let find_user (t : t) (name : string) : user option = List.find_opt (fun u -> u.name = name) t.users
let find_user_by_uid (t : t) (uid : int) : user option = List.find_opt (fun u -> u.uid = uid) t.users
