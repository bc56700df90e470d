package a

import "testing"

func TestOnlyTested(t *testing.T) {
	OnlyTested()
	new(Server).Close()
	Unreasoned()
	_ = Limit
}
