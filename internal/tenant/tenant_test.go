package tenant

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/store"
)

// fakeClock is a manually advanced admission clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func TestValidateName(t *testing.T) {
	for _, ok := range []string{"default", "a", "acme-corp", "t1", "x9-y"} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", ok, err)
		}
	}
	bad := []string{"", "-lead", "trail-", "UPPER", "a.b", "a/b", "a b", "..",
		string(make([]byte, 64))}
	for _, name := range bad {
		if err := ValidateName(name); err == nil {
			t.Errorf("ValidateName(%q) accepted", name)
		}
	}
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	r1 := newRing(4, defaultRingReplicas)
	r2 := newRing(4, defaultRingReplicas)
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		name := "tenant-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		s := r1.shard(name)
		if s != r2.shard(name) {
			t.Fatalf("ring assignment not deterministic for %q", name)
		}
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		// 1000 keys over 4 shards: each should get a meaningful share.
		if c < 100 {
			t.Fatalf("shard %d got only %d/1000 tenants: %v", s, c, counts)
		}
	}
	// One shard degenerates to shard 0.
	if got := newRing(1, 8).shard("anything"); got != 0 {
		t.Fatalf("single-shard ring returned %d", got)
	}
}

func TestBucketRefillAndWait(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBucket(2, 2, now) // 2 tokens/sec, burst 2, starts full
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d rejected with a full bucket", i)
		}
	}
	ok, wait := b.take(now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Fatalf("wait = %v, want (0, 500ms]", wait)
	}
	if ok, _ := b.take(now.Add(600 * time.Millisecond)); !ok {
		t.Fatal("bucket did not refill after the advertised wait")
	}
	// Backwards clock: no refill, no panic.
	if ok, _ := b.take(now.Add(-time.Hour)); ok {
		t.Fatal("backwards clock minted a token")
	}
}

func TestRegistryInMemoryCRUD(t *testing.T) {
	r, err := Open(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Get(DefaultName); !ok {
		t.Fatal("default tenant missing after Open")
	}
	acme, err := r.Create("acme", Quota{MaxWorkflows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acme.Quota().MaxWorkflows != 3 {
		t.Fatalf("quota = %+v", acme.Quota())
	}
	if _, err := r.Create("acme", Quota{}); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := r.Create("Bad Name", Quota{}); err == nil {
		t.Fatal("invalid name accepted")
	}
	if got := len(r.List()); got != 2 {
		t.Fatalf("List() = %d tenants, want 2", got)
	}
	if err := r.Delete(DefaultName); err == nil {
		t.Fatal("default tenant deleted")
	}
	if err := r.Delete("acme"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("acme"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestRegistryDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{DataDir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	acme, err := r.Create("acme", Quota{PlansPerSec: 5, MaxServers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if acme.Store() == nil {
		t.Fatal("durable tenant has no store")
	}
	if _, err := acme.Store().Append("test.record", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	wantShard := acme.Shard()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(Config{DataDir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got, ok := r2.Get("acme")
	if !ok {
		t.Fatal("acme not recovered after reopen")
	}
	if got.Quota().PlansPerSec != 5 || got.Quota().MaxServers != 10 {
		t.Fatalf("quota lost across reopen: %+v", got.Quota())
	}
	if got.Shard() != wantShard {
		t.Fatalf("shard moved across reopen: %d -> %d", wantShard, got.Shard())
	}
	if got.Recovery() == nil || len(got.Recovery().Records) != 1 {
		t.Fatalf("recovery did not replay acme's record: %+v", got.Recovery())
	}
	// The default tenant recovered too (it was created durably).
	if _, ok := r2.Get(DefaultName); !ok {
		t.Fatal("default tenant not recovered")
	}
}

func TestRegistryMigratesLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	// A pre-tenancy daemon wrote its WAL directly under the data root.
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := os.Stat(filepath.Join(dir, DefaultName, "wal.log")); err != nil {
		t.Fatalf("legacy WAL not migrated into the default namespace: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
		t.Fatal("legacy WAL still present at the root")
	}
}

func TestDeleteRemovesNamespace(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Create("gone", Quota{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatal("deleted tenant's namespace still on disk")
	}
}

func TestAdmitQuotaAndQueue(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	r, err := Open(Config{Shards: 1, MaxShardQueue: 2, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	limited, err := r.Create("limited", Quota{PlansPerSec: 1, PlanBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	open, _ := r.Get(DefaultName)

	rel, d := r.Admit(limited)
	if !d.OK {
		t.Fatalf("first admit rejected: %+v", d)
	}
	rel()
	_, d = r.Admit(limited)
	if d.OK || d.Status != http.StatusTooManyRequests || d.RetryAfter <= 0 {
		t.Fatalf("over-quota admit = %+v, want 429 with Retry-After", d)
	}
	clock.t = clock.t.Add(2 * time.Second)
	if rel, d = r.Admit(limited); !d.OK {
		t.Fatalf("admit after refill rejected: %+v", d)
	}
	rel()

	// Queue bound: two in flight fills the single shard; the third sheds
	// with 503 whatever the tenant.
	r1, d1 := r.Admit(open)
	r2, d2 := r.Admit(open)
	if !d1.OK || !d2.OK {
		t.Fatalf("fill admits rejected: %+v %+v", d1, d2)
	}
	if got := r.QueueDepth(0); got != 2 {
		t.Fatalf("QueueDepth = %d, want 2", got)
	}
	_, d3 := r.Admit(open)
	if d3.OK || d3.Status != http.StatusServiceUnavailable || d3.RetryAfter <= 0 {
		t.Fatalf("over-capacity admit = %+v, want 503 with Retry-After", d3)
	}
	r1()
	r2()
	if got := r.QueueDepth(0); got != 0 {
		t.Fatalf("QueueDepth after release = %d, want 0", got)
	}
	if rel, d := r.Admit(open); !d.OK {
		t.Fatalf("admit after drain rejected: %+v", d)
	} else {
		rel()
	}
}

// TestCreateIsDurableThroughInjectedFS: a durable create fsyncs
// tenant.json, the namespace directory and the data root — all through
// the stores' injectable FS, so a disk fault reaches the metadata too —
// and a failed fsync leaves no tenant behind.
func TestCreateIsDurableThroughInjectedFS(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.NewInjector(nil)
	r, err := Open(Config{DataDir: dir, Store: store.Options{FS: in}})
	if err != nil {
		t.Fatal(err)
	}
	before := in.Ops(faultfs.OpSync)
	q := Quota{PlansPerSec: 3, MaxWorkflows: 7}
	if _, err := r.Create("acme", q); err != nil {
		t.Fatal(err)
	}
	if got := in.Ops(faultfs.OpSync) - before; got != 3 {
		t.Fatalf("create issued %d fsyncs through the FS, want 3 (meta, namespace, root)", got)
	}
	in.Arm(faultfs.Fault{Kind: faultfs.SyncErr, At: -1})
	if _, err := r.Create("sick", q); err == nil {
		t.Fatal("create with a failing fsync succeeded")
	}
	if _, ok := r.Get("sick"); ok {
		t.Fatal("failed create registered the tenant")
	}
	if _, err := os.Stat(filepath.Join(dir, "sick")); !os.IsNotExist(err) {
		t.Fatalf("failed create left its namespace behind: %v", err)
	}
	r.Close()

	r2, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got, ok := r2.Get("acme")
	if !ok || got.Quota() != q {
		t.Fatalf("recovered acme = %v (ok=%v), want quota %+v", got, ok, q)
	}
}

// TestEmptyMetaHealsToDefaultQuota: a create that crashed before its
// commit can leave tenant.json empty; boot treats it like a missing file.
func TestEmptyMetaHealsToDefaultQuota(t *testing.T) {
	dir := t.TempDir()
	def := Quota{MaxServers: 9}
	if err := os.MkdirAll(filepath.Join(dir, "half"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "half", metaName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{DataDir: dir, DefaultQuota: def})
	if err != nil {
		t.Fatalf("boot over an empty tenant.json: %v", err)
	}
	defer r.Close()
	if tn, ok := r.Get("half"); !ok || tn.Quota() != def {
		t.Fatalf("half = %v (ok=%v), want the default quota", tn, ok)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "half", metaName)); err != nil || len(raw) == 0 {
		t.Fatalf("tenant.json not healed: %q, %v", raw, err)
	}
}
