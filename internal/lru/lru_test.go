package lru

import "testing"

func TestLRUEvictsOldest(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, evicted := c.Add("c", 3); !evicted {
		t.Fatal("third insert into size-2 cache must evict")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted as least recently used")
	}
	for k, want := range map[string]int{"b": 2, "c": 3} {
		if got, ok := c.Get(k); !ok || got != want {
			t.Fatalf("Get(%q) = %d, %v; want %d, true", k, got, ok, want)
		}
	}
}

func TestLRUGetPromotes(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a") // promote a; b becomes oldest
	if evictedKey, evicted := c.Add("c", 3); !evicted || evictedKey != "b" {
		t.Fatalf("expected b evicted, got %q (evicted=%v)", evictedKey, evicted)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("promoted entry must survive")
	}
}

func TestLRUReplaceDoesNotGrow(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("a", 2)
	if c.Len() != 1 {
		t.Fatalf("replace grew the cache: len=%d", c.Len())
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("replace did not update the value: %d", v)
	}
}

func TestLRUZeroCapacityClamped(t *testing.T) {
	c := New[string, int](0)
	c.Add("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("capacity <= 0 should clamp to 1, keeping the latest entry")
	}
	c.Add("b", 2)
	if c.Len() != 1 {
		t.Fatalf("clamped cache should hold one entry, holds %d", c.Len())
	}
}

func TestLRURemoveAndOldest(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	if !c.Remove("a") {
		t.Fatal("Remove(a) should report presence")
	}
	if c.Remove("a") {
		t.Fatal("second Remove(a) should report absence")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d; want 2", c.Len())
	}
	// The removed entry frees its slot; b is now the oldest.
	if _, evicted := c.Add("d", 4); evicted {
		t.Fatal("insert after Remove must fit without evicting")
	}
	if k, evicted := c.Add("e", 5); !evicted || k != "b" {
		t.Fatalf("evicted %q (%v); want b", k, evicted)
	}
}
