package benchmarks

import (
	"fmt"
	"math/rand"

	"atropos/internal/store"
)

// FMKe is the real-world key-value healthcare benchmark [46]: patients,
// pharmacies, facilities, staff, prescriptions, and the two prescription
// index tables. Prescription counters are loggable; the double index
// maintenance in createPrescription is not relatable by θ̂ and remains
// (Table 1: 6 → 2).
var FMKe = &Benchmark{
	Name: "FMKe",
	Source: `
table PATIENT {
  pa_id: int key,
  pa_name: string,
  pa_presc_cnt: int,
}

table PHARMACY {
  ph_id: int key,
  ph_name: string,
  ph_presc_cnt: int,
}

table FACILITY {
  fa_id: int key,
  fa_name: string,
}

table STAFF {
  sf_id: int key,
  sf_fa_id: int,
  sf_name: string,
}

table PRESCRIPTION {
  pc_id: int key,
  pc_pa_id: int,
  pc_ph_id: int,
  pc_sf_id: int,
  pc_drug: int,
  pc_processed: bool,
}

table PATIENT_INDEX {
  pi_pa_id: int key,
  pi_pc_id: int key,
  pi_active: bool,
}

table PHARMACY_INDEX {
  phi_ph_id: int key,
  phi_pc_id: int key,
  phi_active: bool,
}

txn createPatient(p: int, name: string) {
  insert into PATIENT values (pa_id = p, pa_name = name, pa_presc_cnt = 0);
}

txn createPrescription(pc: int, pa: int, ph: int, sf: int, drug: int) {
  insert into PRESCRIPTION values (pc_id = pc, pc_pa_id = pa, pc_ph_id = ph, pc_sf_id = sf, pc_drug = drug, pc_processed = false);
  update PATIENT_INDEX set pi_active = true where pi_pa_id = pa && pi_pc_id = pc;
  update PHARMACY_INDEX set phi_active = true where phi_ph_id = ph && phi_pc_id = pc;
  c := select pa_presc_cnt from PATIENT where pa_id = pa;
  update PATIENT set pa_presc_cnt = c.pa_presc_cnt + 1 where pa_id = pa;
  d := select ph_presc_cnt from PHARMACY where ph_id = ph;
  update PHARMACY set ph_presc_cnt = d.ph_presc_cnt + 1 where ph_id = ph;
}

txn getPrescription(pc: int) {
  x := select pc_drug from PRESCRIPTION where pc_id = pc;
  return x.pc_drug;
}

txn getPharmacyPrescriptions(ph: int) {
  x := select phi_active from PHARMACY_INDEX where phi_ph_id = ph;
  c := select ph_presc_cnt from PHARMACY where ph_id = ph;
  return count(x.phi_active) + c.ph_presc_cnt;
}

txn processPrescription(pc: int) {
  x := select pc_processed from PRESCRIPTION where pc_id = pc;
  if (x.pc_processed = false) {
    update PRESCRIPTION set pc_processed = true where pc_id = pc;
  }
}

txn getStaffPrescriptions(sf: int) {
  x := select pc_drug from PRESCRIPTION where pc_sf_id = sf;
  return count(x.pc_drug);
}

txn getFacilityStaff(fa: int) {
  x := select sf_name from STAFF where sf_fa_id = fa;
  f := select fa_name from FACILITY where fa_id = fa;
  return count(x.sf_name);
}
`,
	Mix: []MixEntry{
		{Txn: "createPatient", Weight: 5, Args: func(rng *rand.Rand, s Scale) Args {
			sc := s.orDefault()
			id := int64(sc.Records + rng.Intn(1<<20))
			return Bind(iarg("p", id), sarg("name", fmt.Sprintf("patient%d", id)))
		}},
		{Txn: "createPrescription", Weight: 20, Args: func(rng *rand.Rand, s Scale) Args {
			sc := s.orDefault()
			return Bind(iarg("pc", int64(sc.Records+rng.Intn(1<<20))), iarg("pa", s.Key(rng)),
				iarg("ph", int64(rng.Intn(pharmacies(s)))), iarg("sf", int64(rng.Intn(staffCount(s)))), iarg("drug", int64(rng.Intn(500))))
		}},
		{Txn: "getPrescription", Weight: 25, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("pc", s.Key(rng)))
		}},
		{Txn: "getPharmacyPrescriptions", Weight: 20, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("ph", int64(rng.Intn(pharmacies(s)))))
		}},
		{Txn: "processPrescription", Weight: 15, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("pc", s.Key(rng)))
		}},
		{Txn: "getStaffPrescriptions", Weight: 10, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("sf", int64(rng.Intn(staffCount(s)))))
		}},
		{Txn: "getFacilityStaff", Weight: 5, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("fa", int64(rng.Intn(facilities(s)))))
		}},
	},
	Rows: func(s Scale) []store.TableRow {
		s = s.orDefault()
		var rows []store.TableRow
		for f := 0; f < facilities(s); f++ {
			rows = append(rows, store.TableRow{Table: "FACILITY", Row: store.Row{
				"fa_id": iv(int64(f)), "fa_name": sv(fmt.Sprintf("facility%d", f)),
			}})
		}
		for sf := 0; sf < staffCount(s); sf++ {
			rows = append(rows, store.TableRow{Table: "STAFF", Row: store.Row{
				"sf_id": iv(int64(sf)), "sf_fa_id": iv(int64(sf % facilities(s))), "sf_name": sv(fmt.Sprintf("staff%d", sf)),
			}})
		}
		for ph := 0; ph < pharmacies(s); ph++ {
			rows = append(rows, store.TableRow{Table: "PHARMACY", Row: store.Row{
				"ph_id": iv(int64(ph)), "ph_name": sv(fmt.Sprintf("pharmacy%d", ph)), "ph_presc_cnt": iv(0),
			}})
		}
		for i := 0; i < s.Records; i++ {
			id := iv(int64(i))
			rows = append(rows,
				store.TableRow{Table: "PATIENT", Row: store.Row{
					"pa_id": id, "pa_name": sv(fmt.Sprintf("patient%d", i)), "pa_presc_cnt": iv(1),
				}},
				store.TableRow{Table: "PRESCRIPTION", Row: store.Row{
					"pc_id": id, "pc_pa_id": id, "pc_ph_id": iv(int64(i % pharmacies(s))),
					"pc_sf_id": iv(int64(i % staffCount(s))), "pc_drug": iv(int64(i % 500)), "pc_processed": bv(false),
				}},
				store.TableRow{Table: "PATIENT_INDEX", Row: store.Row{"pi_pa_id": id, "pi_pc_id": id, "pi_active": bv(true)}},
				store.TableRow{Table: "PHARMACY_INDEX", Row: store.Row{"phi_ph_id": iv(int64(i % pharmacies(s))), "phi_pc_id": id, "phi_active": bv(true)}},
			)
		}
		return rows
	},
}

func pharmacies(s Scale) int {
	s = s.orDefault()
	n := s.Records / 20
	if n < 2 {
		n = 2
	}
	return n
}

func staffCount(s Scale) int {
	s = s.orDefault()
	n := s.Records / 10
	if n < 2 {
		n = 2
	}
	return n
}

func facilities(s Scale) int {
	s = s.orDefault()
	n := s.Records / 50
	if n < 2 {
		n = 2
	}
	return n
}
