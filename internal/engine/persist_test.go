package engine

import (
	"bytes"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("UPDATE orders SET amount = amount + 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	want, err := db.Exec("SELECT id, region, amount, priority FROM orders ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapshotBytes(db)
	if err != nil {
		t.Fatal(err)
	}

	restored := NewDB()
	if err := restored.LoadSnapshot(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Exec("SELECT id, region, amount, priority FROM orders ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N {
		t.Fatalf("rows = %d, want %d", got.N, want.N)
	}
	gotRows, wantRows := boxed(got), boxed(want)
	for i := range wantRows {
		for c := range wantRows[i] {
			if gotRows[i][c] != wantRows[i][c] {
				t.Fatalf("row %d col %d: %v vs %v", i, c, gotRows[i][c], wantRows[i][c])
			}
		}
	}
	// Version counter survives.
	orig, _ := db.Table("orders")
	rest, _ := restored.Table("orders")
	if rest.Version() != orig.Version() {
		t.Errorf("version = %d, want %d", rest.Version(), orig.Version())
	}
	// Restored DB accepts writes and keeps sequencing versions.
	if _, err := restored.Exec("INSERT INTO orders VALUES (9, 'eu', 1.0, 1)"); err != nil {
		t.Fatal(err)
	}
	if rest.Version() != orig.Version()+1 {
		t.Errorf("version after a write = %d, want %d", rest.Version(), orig.Version()+1)
	}
}

func TestSnapshotErrors(t *testing.T) {
	db := newTestDB(t)
	if err := db.LoadSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Error("bad magic should error")
	}
	blob, _ := snapshotBytes(db)
	if err := db.LoadSnapshot(bytes.NewReader(blob)); err == nil {
		t.Error("loading into a non-empty database should error")
	}
	if err := NewDB().LoadSnapshot(bytes.NewReader(blob[:6])); err == nil {
		t.Error("truncated snapshot should error")
	}
}

// snapshotBytes is DB.SaveSnapshot into a fresh buffer.
func snapshotBytes(db *DB) ([]byte, error) {
	var buf bytes.Buffer
	err := db.SaveSnapshot(&buf)
	return buf.Bytes(), err
}

func TestSnapshotEmptyDB(t *testing.T) {
	blob, err := snapshotBytes(NewDB())
	if err != nil {
		t.Fatal(err)
	}
	restored := NewDB()
	if err := restored.LoadSnapshot(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if len(restored.TableNames()) != 0 {
		t.Error("empty snapshot should restore empty")
	}
}
