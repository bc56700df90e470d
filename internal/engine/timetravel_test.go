package engine

import (
	"strings"
	"testing"
)

func TestTimeTravelSelect(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (a int)"); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("t")
	// Version 0: empty. Each insert bumps the version.
	for i := 1; i <= 3; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (" + strings.Repeat("1", i) + ")"); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Version() != 3 {
		t.Fatalf("version = %d", tab.Version())
	}
	// Current read sees 3 rows.
	res, err := db.Exec("SELECT count(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0] != int64(3) {
		t.Fatalf("current rows = %v", boxed(res)[0][0])
	}
	// Time travel to each retained version.
	for v, want := range map[string]int64{"0": 0, "1": 1, "2": 2, "3": 3} {
		res, err := db.Exec("SELECT count(*) AS n FROM t VERSION " + v)
		if err != nil {
			t.Fatalf("version %s: %v", v, err)
		}
		if boxed(res)[0][0] != want {
			t.Errorf("version %s rows = %v, want %d", v, boxed(res)[0][0], want)
		}
	}
}

func TestTimeTravelSeesPreUpdateValues(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (a int, b float)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 10.0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE t SET b = 99.0 WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0] != 99.0 {
		t.Fatalf("current b = %v", boxed(res)[0][0])
	}
	// Version 1 (after insert, before update) still shows the old value.
	res, err = db.Exec("SELECT b FROM t VERSION 1")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0] != 10.0 {
		t.Errorf("historical b = %v, want 10", boxed(res)[0][0])
	}
}

func TestTimeTravelRetentionWindow(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (a int)"); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("t")
	tab.setRetention(2)
	for i := 0; i < 5; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("SELECT count(*) AS n FROM t VERSION 0"); err == nil {
		t.Error("evicted version should error")
	}
	versions := tab.retainedVersions()
	if len(versions) != 2 || versions[0] != 3 || versions[1] != 4 {
		t.Errorf("retained = %v, want [3 4]", versions)
	}
	if _, err := db.Exec("SELECT count(*) AS n FROM t VERSION 4"); err != nil {
		t.Errorf("retained version failed: %v", err)
	}
	if _, err := db.Exec("SELECT count(*) AS n FROM t VERSION 99"); err == nil {
		t.Error("future version should error")
	}
}

func TestTimeTravelDelete(t *testing.T) {
	db := newTestDB(t) // 6 orders, version 1 (bulk load)
	tab, _ := db.Table("orders")
	v := tab.Version()
	if _, err := db.Exec("DELETE FROM orders WHERE region = 'us'"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT count(*) AS n FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0] != int64(3) {
		t.Fatalf("after delete = %v", boxed(res)[0][0])
	}
	// The pre-delete snapshot still shows all six rows.
	res, err = db.Exec("SELECT count(*) AS n FROM orders VERSION " + itoa64(v))
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0] != int64(6) {
		t.Errorf("historical count = %v, want 6", boxed(res)[0][0])
	}
}

func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
