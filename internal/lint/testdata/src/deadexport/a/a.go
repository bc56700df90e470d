// Package a is the dead-export fixture's library: each exported name is
// either used by a non-test file of the fixture or expected as a finding.
package a

// OnlyTested is called by a_test.go alone.
func OnlyTested() {} // want `func a.OnlyTested is referenced only by tests`

// UsedAcross is called from package main. load type-checks main against
// this package's export data, so the use must match by name, not object.
func UsedAcross() {}

// Server is used across the import.
type Server struct{}

// Serve satisfies main's Handler interface; main calls it only through
// that interface.
func (*Server) Serve() {}

// Close is a method no interface declares and nothing calls.
func (*Server) Close() {} // want `method a.Server.Close is referenced only by tests`

// Reasoned is kept with a reason.
//
//flockvet:ignore deadexport the fixture's kept finding
func Reasoned() {}

// Unreasoned carries a directive without a reason, which keeps nothing.
//
//flockvet:ignore deadexport
func Unreasoned() {} // want `func a.Unreasoned is referenced only by tests`

// Limit is a package-level constant only tests read.
const Limit = 3 // want `identifier a.Limit is referenced only by tests`
