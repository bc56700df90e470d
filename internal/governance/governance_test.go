package governance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAccessDenyByDefault(t *testing.T) {
	a := NewAccessController()
	if err := a.Check("alice", ActSelect, TableObject("t")); err == nil {
		t.Error("unknown user should be denied")
	}
	a.AssignRole("alice", "analyst")
	if err := a.Check("alice", ActSelect, TableObject("t")); err == nil {
		t.Error("role without grants should be denied")
	}
}

func TestAccessGrantRevoke(t *testing.T) {
	a := NewAccessController()
	a.Grant("analyst", ActSelect, TableObject("orders"))
	a.AssignRole("alice", "analyst")
	if err := a.Check("alice", ActSelect, TableObject("orders")); err != nil {
		t.Errorf("granted access denied: %v", err)
	}
	if err := a.Check("alice", ActInsert, TableObject("orders")); err == nil {
		t.Error("ungranted action should be denied")
	}
	if err := a.Check("alice", ActSelect, TableObject("other")); err == nil {
		t.Error("ungranted object should be denied")
	}
	a.Revoke("analyst", ActSelect, TableObject("orders"))
	if err := a.Check("alice", ActSelect, TableObject("orders")); err == nil {
		t.Error("revoked access should be denied")
	}
}

func TestAccessWildcardAndModels(t *testing.T) {
	a := NewAccessController()
	a.Grant("admin", ActScore, AllObjects)
	a.AssignRole("root", "admin")
	if err := a.Check("root", ActScore, ModelObject("churn")); err != nil {
		t.Errorf("wildcard denied: %v", err)
	}
	a.Grant("scorer", ActScore, ModelObject("churn"))
	a.AssignRole("svc", "scorer")
	if err := a.Check("svc", ActScore, ModelObject("churn")); err != nil {
		t.Errorf("model grant denied: %v", err)
	}
	if err := a.Check("svc", ActScore, ModelObject("fraud")); err == nil {
		t.Error("other model should be denied")
	}
}

func TestRemoveRole(t *testing.T) {
	a := NewAccessController()
	a.Grant("analyst", ActSelect, AllObjects)
	a.AssignRole("bob", "analyst")
	if err := a.Check("bob", ActSelect, TableObject("t")); err != nil {
		t.Fatal(err)
	}
	a.RemoveRole("bob", "analyst")
	if err := a.Check("bob", ActSelect, TableObject("t")); err == nil {
		t.Error("removed role should deny")
	}
	if got := len(a.RolesOf("bob")); got != 0 {
		t.Errorf("roles = %d", got)
	}
}

func TestPermissionErrorMessage(t *testing.T) {
	a := NewAccessController()
	err := a.Check("eve", ActDelete, TableObject("payroll"))
	pe, ok := err.(*PermissionError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.User != "eve" || pe.Act != ActDelete {
		t.Errorf("error fields: %+v", pe)
	}
}

// Property: revoking never widens access — any (user, action, object)
// denied before a revoke stays denied after.
func TestRevokeMonotonicProperty(t *testing.T) {
	f := func(grantBits uint16) bool {
		a := NewAccessController()
		acts := []Action{ActSelect, ActInsert, ActScore, ActDeploy}
		objs := []Object{TableObject("t"), ModelObject("m"), AllObjects}
		// Grant a subset.
		bit := 0
		for _, act := range acts {
			for _, obj := range objs {
				if grantBits&(1<<bit) != 0 {
					a.Grant("r", act, obj)
				}
				bit++
			}
		}
		a.AssignRole("u", "r")
		deniedBefore := map[int]bool{}
		idx := 0
		for _, act := range acts {
			for _, obj := range objs {
				if obj != AllObjects && a.Check("u", act, obj) != nil {
					deniedBefore[idx] = true
				}
				idx++
			}
		}
		// Revoke something.
		a.Revoke("r", acts[int(grantBits)%len(acts)], objs[int(grantBits)%len(objs)])
		idx = 0
		for _, act := range acts {
			for _, obj := range objs {
				if obj != AllObjects && deniedBefore[idx] && a.Check("u", act, obj) == nil {
					return false
				}
				idx++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAuditChain(t *testing.T) {
	l := NewAuditLog()
	l.Record("alice", "select", "table:orders", "q1", true)
	l.Record("bob", "insert", "table:orders", "q2", true)
	l.Record("eve", "denied", "table:payroll", "q3", false)
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	if bad := l.Verify(); bad != -1 {
		t.Fatalf("fresh log verify failed at %d", bad)
	}
	entries := l.Entries()
	if entries[1].PrevHash != entries[0].Hash {
		t.Error("chain not linked")
	}
	if entries[0].Seq != 1 || entries[2].Seq != 3 {
		t.Error("sequence numbers wrong")
	}
}

func TestAuditTamperDetection(t *testing.T) {
	l := NewAuditLog()
	for i := 0; i < 10; i++ {
		l.Record("u", "a", "o", "detail", true)
	}
	l.tamper(4, "rewritten history")
	if bad := l.Verify(); bad != 4 {
		t.Errorf("tamper detected at %d, want 4", bad)
	}
}

// Property: the audit chain verifies if and only if untampered, for random
// entry counts and tamper positions.
func TestAuditChainProperty(t *testing.T) {
	f := func(n, pos uint8) bool {
		count := int(n)%20 + 2
		l := NewAuditLog()
		for i := 0; i < count; i++ {
			l.Record("u", "act", "obj", "d", i%2 == 0)
		}
		if l.Verify() != -1 {
			return false
		}
		p := int(pos) % count
		l.tamper(p, "x")
		return l.Verify() == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// fmtHash is the chain hash as the audit log first computed it, through
// fmt; hashEntry must produce the same digest without fmt.
func fmtHash(e *AuditEntry) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%s|%s|%s|%s|%t|%s",
		e.Seq, e.At.UnixNano(), e.User, e.Action, e.Object, e.Detail, e.Allowed, e.PrevHash)
	return hex.EncodeToString(h.Sum(nil))
}

// TestHashEntryMatchesFmt pins hashEntry to the fmt formula on random
// entries — separators inside fields, empty fields, non-ASCII text, long
// details, negative times — and shows that a chain hashed by the formula
// still restores and verifies.
func TestHashEntryMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"", "|", "a|b", "ünïcødé", "日本語", "select * from t", "%d%s", "\x00", strings.Repeat("x", 700)}
	field := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	var chain []AuditEntry
	prev := ""
	for i := 0; i < 500; i++ {
		e := AuditEntry{
			Seq:     int64(i + 1),
			At:      time.Unix(rng.Int63n(1<<33)-1<<32, rng.Int63n(1e9)),
			User:    field(),
			Action:  field(),
			Object:  field(),
			Detail:  field(),
			Allowed: rng.Intn(2) == 0,
		}
		if i%7 == 0 {
			e.PrevHash = field() // hashEntry takes any PrevHash, not only hex
			if got, want := hashEntry(&e), fmtHash(&e); got != want {
				t.Fatalf("entry %+v: hashEntry %s, fmt formula %s", e, got, want)
			}
		}
		e.PrevHash = prev
		e.Hash = fmtHash(&e)
		if got := hashEntry(&e); got != e.Hash {
			t.Fatalf("entry %+v: hashEntry %s, fmt formula %s", e, got, e.Hash)
		}
		chain = append(chain, e)
		prev = e.Hash
	}
	l := NewAuditLog()
	if err := l.Restore(chain); err != nil {
		t.Fatalf("a chain hashed by the fmt formula does not restore: %v", err)
	}
	if bad := l.Verify(); bad != -1 {
		t.Fatalf("restored chain broken at %d", bad)
	}
	if next := l.Record("u", "select", "table:t", "after restore", true); next.PrevHash != prev || next.Hash != fmtHash(&next) {
		t.Fatalf("entry appended after restore does not extend the chain: %+v", next)
	}
}
