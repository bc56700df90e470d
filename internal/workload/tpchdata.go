package workload

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/ml"
)

// TPC-H data generation at a reduced scale: row counts keep the standard's
// proportions (customer : orders : lineitem = 1 : 10 : 40 per unit) so the
// executable query subset produces realistically-shaped intermediate
// results.

var tpchRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var tpchNations = []struct {
	name   string
	region int
}{
	{"ALGERIA", 0}, {"ETHIOPIA", 0}, {"KENYA", 0}, {"MOROCCO", 0}, {"MOZAMBIQUE", 0},
	{"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1}, {"PERU", 1}, {"UNITED STATES", 1},
	{"CHINA", 2}, {"INDIA", 2}, {"INDONESIA", 2}, {"JAPAN", 2}, {"VIETNAM", 2},
	{"FRANCE", 3}, {"GERMANY", 3}, {"ROMANIA", 3}, {"RUSSIA", 3}, {"UNITED KINGDOM", 3},
	{"EGYPT", 4}, {"IRAN", 4}, {"IRAQ", 4}, {"JORDAN", 4}, {"SAUDI ARABIA", 4},
}

var tpchSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
var tpchPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var tpchShipModes = []string{"AIR", "AIR REG", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"}
var tpchTypes = []string{"ECONOMY ANODIZED STEEL", "STANDARD POLISHED TIN", "PROMO BURNISHED COPPER", "MEDIUM PLATED BRASS", "SMALL BRUSHED NICKEL"}
var tpchContainers = []string{"SM CASE", "MED BOX", "LG DRUM", "JUMBO PKG"}

func tpchDate(r *ml.Rand) string {
	y := 1992 + r.Intn(7)
	m := 1 + r.Intn(12)
	d := 1 + r.Intn(28)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// LoadTPCH creates and bulk-loads the 8 TPC-H tables into db. scale=1
// yields 150 customers / 1,500 orders / ~6,000 lineitems (1/1000 of SF-1).
//
//flockvet:ignore deadexport loads TPC-H for the root TPC-H benchmarks and the workload tests
func LoadTPCH(db *engine.DB, scale int) error {
	if scale <= 0 {
		scale = 1
	}
	r := ml.NewRand(uint64(scale) * 7919)
	for _, ddl := range TPCHSchema {
		if _, err := db.Exec(ddl); err != nil {
			return fmt.Errorf("workload: LoadTPCH: %w", err)
		}
	}

	// region
	rk := make([]int64, len(tpchRegions))
	rn := make([]string, len(tpchRegions))
	rc := make([]string, len(tpchRegions))
	for i, name := range tpchRegions {
		rk[i] = int64(i)
		rn[i] = name
		rc[i] = "region comment"
	}
	if err := db.ReplaceColumns("region", []engine.Column{
		engine.IntColumn(rk), engine.StringColumn(rn), engine.StringColumn(rc)}); err != nil {
		return err
	}

	// nation
	nk := make([]int64, len(tpchNations))
	nn := make([]string, len(tpchNations))
	nr := make([]int64, len(tpchNations))
	nc := make([]string, len(tpchNations))
	for i, n := range tpchNations {
		nk[i] = int64(i)
		nn[i] = n.name
		nr[i] = int64(n.region)
		nc[i] = "nation comment"
	}
	if err := db.ReplaceColumns("nation", []engine.Column{
		engine.IntColumn(nk), engine.StringColumn(nn), engine.IntColumn(nr), engine.StringColumn(nc)}); err != nil {
		return err
	}

	// supplier: 10 per scale unit
	nSupp := 10 * scale
	sk := make([]int64, nSupp)
	sn := make([]string, nSupp)
	sa := make([]string, nSupp)
	snat := make([]int64, nSupp)
	sp := make([]string, nSupp)
	sb := make([]float64, nSupp)
	scm := make([]string, nSupp)
	for i := 0; i < nSupp; i++ {
		sk[i] = int64(i + 1)
		sn[i] = fmt.Sprintf("Supplier#%05d", i+1)
		sa[i] = fmt.Sprintf("addr-%d", i)
		snat[i] = int64(r.Intn(25))
		sp[i] = fmt.Sprintf("%02d-555-%04d", 10+r.Intn(25), r.Intn(10000))
		sb[i] = -999 + r.Float64()*10999
		scm[i] = "supplier comment"
		if r.Intn(20) == 0 {
			scm[i] = "Customer unhappy Complaints filed"
		}
	}
	if err := db.ReplaceColumns("supplier", []engine.Column{
		engine.IntColumn(sk), engine.StringColumn(sn), engine.StringColumn(sa),
		engine.IntColumn(snat), engine.StringColumn(sp), engine.FloatColumn(sb),
		engine.StringColumn(scm)}); err != nil {
		return err
	}

	// customer: 150 per scale unit
	nCust := 150 * scale
	ck := make([]int64, nCust)
	cn := make([]string, nCust)
	ca := make([]string, nCust)
	cnat := make([]int64, nCust)
	cp := make([]string, nCust)
	cb := make([]float64, nCust)
	cs := make([]string, nCust)
	cc := make([]string, nCust)
	for i := 0; i < nCust; i++ {
		ck[i] = int64(i + 1)
		cn[i] = fmt.Sprintf("Customer#%06d", i+1)
		ca[i] = fmt.Sprintf("caddr-%d", i)
		cnat[i] = int64(r.Intn(25))
		cp[i] = fmt.Sprintf("%02d-555-%04d", 10+r.Intn(25), r.Intn(10000))
		cb[i] = -999 + r.Float64()*10999
		cs[i] = tpchSegments[r.Intn(len(tpchSegments))]
		cc[i] = "customer comment"
	}
	if err := db.ReplaceColumns("customer", []engine.Column{
		engine.IntColumn(ck), engine.StringColumn(cn), engine.StringColumn(ca),
		engine.IntColumn(cnat), engine.StringColumn(cp), engine.FloatColumn(cb),
		engine.StringColumn(cs), engine.StringColumn(cc)}); err != nil {
		return err
	}

	// part: 20 per scale unit
	nPart := 20 * scale
	pk := make([]int64, nPart)
	pn := make([]string, nPart)
	pm := make([]string, nPart)
	pb := make([]string, nPart)
	pt := make([]string, nPart)
	ps := make([]int64, nPart)
	pc := make([]string, nPart)
	pr := make([]float64, nPart)
	pcm := make([]string, nPart)
	colors := []string{"green", "red", "blue", "ivory", "azure", "forest", "lace"}
	for i := 0; i < nPart; i++ {
		pk[i] = int64(i + 1)
		pn[i] = fmt.Sprintf("%s polished part %d", colors[r.Intn(len(colors))], i+1)
		pm[i] = fmt.Sprintf("Manufacturer#%d", 1+r.Intn(5))
		pb[i] = fmt.Sprintf("Brand#%d%d", 1+r.Intn(5), 1+r.Intn(5))
		pt[i] = tpchTypes[r.Intn(len(tpchTypes))]
		ps[i] = int64(1 + r.Intn(50))
		pc[i] = tpchContainers[r.Intn(len(tpchContainers))]
		pr[i] = 900 + r.Float64()*1100
		pcm[i] = "part comment"
	}
	if err := db.ReplaceColumns("part", []engine.Column{
		engine.IntColumn(pk), engine.StringColumn(pn), engine.StringColumn(pm),
		engine.StringColumn(pb), engine.StringColumn(pt), engine.IntColumn(ps),
		engine.StringColumn(pc), engine.FloatColumn(pr), engine.StringColumn(pcm)}); err != nil {
		return err
	}

	// partsupp: 4 suppliers per part
	nPS := nPart * 4
	pspk := make([]int64, nPS)
	pssk := make([]int64, nPS)
	psq := make([]int64, nPS)
	psc := make([]float64, nPS)
	pscm := make([]string, nPS)
	for i := 0; i < nPS; i++ {
		pspk[i] = int64(i/4 + 1)
		pssk[i] = int64(r.Intn(nSupp) + 1)
		psq[i] = int64(1 + r.Intn(9999))
		psc[i] = 1 + r.Float64()*999
		pscm[i] = "partsupp comment"
	}
	if err := db.ReplaceColumns("partsupp", []engine.Column{
		engine.IntColumn(pspk), engine.IntColumn(pssk), engine.IntColumn(psq),
		engine.FloatColumn(psc), engine.StringColumn(pscm)}); err != nil {
		return err
	}

	// orders: 10 per customer
	nOrd := nCust * 10
	ok := make([]int64, nOrd)
	ocust := make([]int64, nOrd)
	ost := make([]string, nOrd)
	otp := make([]float64, nOrd)
	od := make([]string, nOrd)
	opr := make([]string, nOrd)
	ocl := make([]string, nOrd)
	osp := make([]int64, nOrd)
	ocm := make([]string, nOrd)
	for i := 0; i < nOrd; i++ {
		ok[i] = int64(i + 1)
		ocust[i] = int64(r.Intn(nCust) + 1)
		ost[i] = []string{"F", "O", "P"}[r.Intn(3)]
		otp[i] = 1000 + r.Float64()*400000
		od[i] = tpchDate(r)
		opr[i] = tpchPriorities[r.Intn(len(tpchPriorities))]
		ocl[i] = fmt.Sprintf("Clerk#%03d", r.Intn(100))
		osp[i] = 0
		ocm[i] = []string{"order comment", "special requests noted", "pending packages"}[r.Intn(3)]
	}
	if err := db.ReplaceColumns("orders", []engine.Column{
		engine.IntColumn(ok), engine.IntColumn(ocust), engine.StringColumn(ost),
		engine.FloatColumn(otp), engine.StringColumn(od), engine.StringColumn(opr),
		engine.StringColumn(ocl), engine.IntColumn(osp), engine.StringColumn(ocm)}); err != nil {
		return err
	}

	// lineitem: ~4 per order
	var lok, lpk, lsk, lln, lqty []int64
	var lep, ldisc, ltax []float64
	var lrf, lls, lsd, lcd, lrd, lsi, lsm, lcm []string
	for o := 0; o < nOrd; o++ {
		lines := 1 + r.Intn(6)
		for l := 0; l < lines; l++ {
			lok = append(lok, int64(o+1))
			lpk = append(lpk, int64(r.Intn(nPart)+1))
			lsk = append(lsk, int64(r.Intn(nSupp)+1))
			lln = append(lln, int64(l+1))
			q := int64(1 + r.Intn(50))
			lqty = append(lqty, q)
			lep = append(lep, float64(q)*(900+r.Float64()*1100))
			ldisc = append(ldisc, float64(r.Intn(11))/100)
			ltax = append(ltax, float64(r.Intn(9))/100)
			lrf = append(lrf, []string{"A", "N", "R"}[r.Intn(3)])
			lls = append(lls, []string{"F", "O"}[r.Intn(2)])
			ship := tpchDate(r)
			lsd = append(lsd, ship)
			commit, _ := engine.AddInterval(ship, 1+r.Intn(60), "day")
			lcd = append(lcd, commit)
			receipt, _ := engine.AddInterval(ship, 1+r.Intn(90), "day")
			lrd = append(lrd, receipt)
			lsi = append(lsi, []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}[r.Intn(4)])
			lsm = append(lsm, tpchShipModes[r.Intn(len(tpchShipModes))])
			lcm = append(lcm, "lineitem comment")
		}
	}
	qtyF := make([]float64, len(lqty))
	for i, q := range lqty {
		qtyF[i] = float64(q)
	}
	return db.ReplaceColumns("lineitem", []engine.Column{
		engine.IntColumn(lok), engine.IntColumn(lpk), engine.IntColumn(lsk),
		engine.IntColumn(lln), engine.FloatColumn(qtyF), engine.FloatColumn(lep),
		engine.FloatColumn(ldisc), engine.FloatColumn(ltax), engine.StringColumn(lrf),
		engine.StringColumn(lls), engine.StringColumn(lsd), engine.StringColumn(lcd),
		engine.StringColumn(lrd), engine.StringColumn(lsi), engine.StringColumn(lsm),
		engine.StringColumn(lcm)})
}

// ExecutableTPCHQueries lists the template numbers the engine can execute
// end to end (the rest require correlated subqueries and are parse-only,
// used by the provenance study).
//
//flockvet:ignore deadexport the TPC-H queries the engine runs, shared by the root TPC-H benchmark and the workload tests
var ExecutableTPCHQueries = []int{1, 3, 5, 6, 10, 12, 14, 19}
