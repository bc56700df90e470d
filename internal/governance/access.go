// Package governance provides the enterprise-grade controls the paper says
// the DB community must extend to models: role-based access control over
// tables AND deployed models ("access to a deployed model must be
// controlled, similar to how access to data or a view is controlled in a
// DBMS"), and a hash-chained, tamper-evident audit log so storage and
// scoring are "secured and auditably tracked".
package governance

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Action is a controllable operation.
type Action string

// Actions subject to access control.
const (
	ActSelect Action = "select"
	ActInsert Action = "insert"
	ActUpdate Action = "update"
	ActDelete Action = "delete"
	ActScore  Action = "score"  // run inference with a model
	ActDeploy Action = "deploy" // register/promote a model
	ActCreate Action = "create" // create tables
)

// Object identifies a protected object: "table:<name>", "model:<name>", or
// "*" for everything.
type Object string

// TableObject names a table object.
func TableObject(name string) Object { return Object("table:" + name) }

// ColumnObject names a single column for fine-grained grants; a user with
// only column grants may read exactly those columns of the table.
func ColumnObject(table, column string) Object { return Object("column:" + table + "." + column) }

// ModelObject names a model object.
func ModelObject(name string) Object { return Object("model:" + name) }

// AllObjects matches every object.
const AllObjects Object = "*"

// perm is one (action, object) grant.
type perm struct {
	act Action
	obj Object
}

// AccessController is a deny-by-default RBAC store.
type AccessController struct {
	mu    sync.RWMutex
	roles map[string]map[perm]bool // role -> grants
	users map[string]map[string]bool
}

// NewAccessController returns an empty controller (everything denied).
func NewAccessController() *AccessController {
	return &AccessController{
		roles: map[string]map[perm]bool{},
		users: map[string]map[string]bool{},
	}
}

// Grant adds (action, object) to a role, creating the role if needed.
func (a *AccessController) Grant(role string, act Action, obj Object) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.roles[role] == nil {
		a.roles[role] = map[perm]bool{}
	}
	a.roles[role][perm{act, obj}] = true
}

// Revoke removes a grant from a role.
func (a *AccessController) Revoke(role string, act Action, obj Object) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.roles[role], perm{act, obj})
}

// AssignRole gives a user a role.
func (a *AccessController) AssignRole(user, role string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.users[user] == nil {
		a.users[user] = map[string]bool{}
	}
	a.users[user][role] = true
}

// RemoveRole revokes a user's role membership.
func (a *AccessController) RemoveRole(user, role string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.users[user], role)
}

// PermissionError reports a denied access with enough context to audit.
type PermissionError struct {
	User string
	Act  Action
	Obj  Object
}

func (e *PermissionError) Error() string {
	return fmt.Sprintf("governance: user %q denied %s on %s", e.User, e.Act, e.Obj)
}

// Check returns nil if user may perform act on obj; otherwise a
// *PermissionError. Deny by default.
func (a *AccessController) Check(user string, act Action, obj Object) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for role := range a.users[user] {
		grants := a.roles[role]
		if grants[perm{act, obj}] || grants[perm{act, AllObjects}] {
			return nil
		}
	}
	return &PermissionError{User: user, Act: act, Obj: obj}
}

// RolesOf lists a user's roles (sorted).
func (a *AccessController) RolesOf(user string) []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []string
	for r := range a.users[user] {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// String summarizes the controller for debugging.
func (a *AccessController) String() string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "rbac{roles=%d users=%d}", len(a.roles), len(a.users))
	return b.String()
}
