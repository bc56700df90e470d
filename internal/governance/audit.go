package governance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// AuditEntry is one immutable audit record. Hash covers the entry's fields
// and the previous entry's hash, making the log tamper-evident: mutating or
// removing any historical entry breaks every subsequent hash.
type AuditEntry struct {
	Seq      int64
	At       time.Time
	User     string
	Action   string
	Object   string
	Detail   string
	Allowed  bool
	PrevHash string
	Hash     string
}

// AuditLog is an append-only, hash-chained log.
type AuditLog struct {
	mu      sync.RWMutex
	entries []AuditEntry
	sink    func(AuditEntry)
}

// NewAuditLog returns an empty log.
func NewAuditLog() *AuditLog { return &AuditLog{} }

// hashEntry is the chain hash: SHA-256 over the bytes
// fmt.Sprintf("%d|%d|%s|%s|%s|%s|%t|%s", Seq, At.UnixNano(), User, Action,
// Object, Detail, Allowed, PrevHash) would produce, assembled without fmt.
func hashEntry(e *AuditEntry) string {
	var buf [512]byte
	b := strconv.AppendInt(buf[:0], e.Seq, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, e.At.UnixNano(), 10)
	for _, s := range [...]string{e.User, e.Action, e.Object, e.Detail} {
		b = append(b, '|')
		b = append(b, s...)
	}
	b = append(b, '|')
	b = strconv.AppendBool(b, e.Allowed)
	b = append(b, '|')
	b = append(b, e.PrevHash...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Record appends an entry and returns it.
func (l *AuditLog) Record(user, action, object, detail string, allowed bool) AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := AuditEntry{
		Seq: int64(len(l.entries) + 1), At: time.Now(),
		User: user, Action: action, Object: object, Detail: detail, Allowed: allowed,
	}
	if len(l.entries) > 0 {
		e.PrevHash = l.entries[len(l.entries)-1].Hash
	}
	e.Hash = hashEntry(&e)
	l.entries = append(l.entries, e)
	if l.sink != nil {
		l.sink(e)
	}
	return e
}

// SetSink registers a function invoked (under the log lock, in append
// order) for every new entry — the durability layer's hook for persisting
// the chain as it grows.
func (l *AuditLog) SetSink(fn func(AuditEntry)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = fn
}

// Restore seeds an empty log with previously persisted entries after
// verifying the hash chain end to end — recovery must not resurrect a
// tampered log.
func (l *AuditLog) Restore(entries []AuditEntry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) != 0 {
		return fmt.Errorf("governance: Restore requires an empty audit log (%d entries present)", len(l.entries))
	}
	prev := ""
	for i := range entries {
		e := entries[i]
		if e.Seq != int64(i+1) {
			return fmt.Errorf("governance: restored audit entry %d has seq %d", i, e.Seq)
		}
		if e.PrevHash != prev || hashEntry(&e) != e.Hash {
			return fmt.Errorf("governance: restored audit chain broken at entry %d", i)
		}
		prev = e.Hash
	}
	l.entries = append([]AuditEntry(nil), entries...)
	return nil
}

// Entries returns a copy of the log.
func (l *AuditLog) Entries() []AuditEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]AuditEntry(nil), l.entries...)
}

// Len returns the entry count.
func (l *AuditLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Verify walks the chain and returns the index of the first corrupted
// entry, or -1 if the log is intact.
func (l *AuditLog) Verify() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	prev := ""
	for i := range l.entries {
		e := l.entries[i]
		if e.PrevHash != prev {
			return i
		}
		if hashEntry(&e) != e.Hash {
			return i
		}
		prev = e.Hash
	}
	return -1
}

// tamper mutates an entry in place; exported only to the package tests via
// the _test file. It exists so the tamper-evidence property can be tested
// without reflection.
func (l *AuditLog) tamper(i int, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[i].Detail = detail
}
