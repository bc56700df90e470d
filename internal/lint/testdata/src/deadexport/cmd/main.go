// Command cmd uses package a. A main package is never checked itself:
// Handler and Run are exported but nothing outside main could call them.
package main

import "deadexport_fixture/a"

// Handler is the interface a.Server satisfies.
type Handler interface{ Serve() }

// Run calls through the interface.
func Run(h Handler) { h.Serve() }

func main() {
	a.UsedAcross()
	Run(&a.Server{})
}
