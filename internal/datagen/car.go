package datagen

import (
	"fmt"
	"math/rand"

	"mlnclean/internal/dataset"
	"mlnclean/internal/rules"
)

// CARConfig sizes the synthetic used-vehicle dataset.
type CARConfig struct {
	// Rows is the number of listings (default 3000).
	Rows int
	// Makes is the number of manufacturers (default 24; "acura" is always
	// among them because Table 4's CFD binds it).
	Makes int
	// ModelsPerMake is the mean number of models per make (default 6).
	// Models follow a long-tail popularity distribution, making the dataset
	// sparse: most (Model, Type) combinations have very few rows. That
	// sparsity is what makes HoloClean typo-sensitive on CAR (Fig. 7a).
	ModelsPerMake int
	// Seed makes generation deterministic.
	Seed int64
}

func (c CARConfig) withDefaults() CARConfig {
	if c.Rows <= 0 {
		c.Rows = 3000
	}
	if c.Makes <= 0 {
		c.Makes = 24
	}
	if c.ModelsPerMake <= 0 {
		c.ModelsPerMake = 6
	}
	return c
}

// CARSchema is the attribute list of the synthetic CAR table, matching the
// cars.com attributes the paper lists (§7.1).
var CARSchema = []string{
	"Model", "Make", "Type", "Year", "Condition", "WheelDrive", "Doors", "Engine",
}

// CARRules returns the Table 4 constraints for CAR. Table 4 prints a single
// CFD pattern row, Make("acura"), Type ⇒ Doors; CFDs are pattern tableaux
// over an embedded FD (Fan et al., the paper's [13]), and with only the
// acura row every Doors error outside acura rows would be provably
// unrepairable — inconsistent with the paper's reported F1 ≈ 0.96. We
// therefore include the embedded FD Make, Type ⇒ Doors alongside the
// published pattern row (see README › Deviations from the paper).
func CARRules() []*rules.Rule {
	return rules.MustParseStrings(
		"CFD: Make=acura, Type -> Doors",
		"FD: Model, Type -> Make",
		"FD: Make, Type -> Doors",
	)
}

// CAR generates the sparse used-vehicle dataset. Every model belongs to
// exactly one make (FD Model,Type ⇒ Make holds) and doors are a function of
// body type (so the acura CFD holds on clean data).
func CAR(cfg CARConfig) (*dataset.Table, []*rules.Rule, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	makeNamer := newNamer(rng, 2, 3)
	modelNamer := newNamer(rng, 3, 4)

	makes := make([]string, cfg.Makes)
	makes[0] = "acura"
	for i := 1; i < cfg.Makes; i++ {
		makes[i] = makeNamer.fresh()
	}

	types := []string{"SEDAN", "SUV", "COUPE", "TRUCK", "VAN", "HATCHBACK"}
	doorsByType := map[string]string{
		"SEDAN": "4", "SUV": "4", "COUPE": "2", "TRUCK": "2", "VAN": "4", "HATCHBACK": "4",
	}
	conditions := []string{"NEW", "USED", "CERTIFIED"}
	wheelDrives := []string{"FWD", "RWD", "AWD", "4WD"}
	engines := []string{"I4", "V6", "V8", "H4", "I6", "ELECTRIC", "HYBRID"}

	// Long-tail model popularity: model i of a make gets weight ∝ 1/(i+1).
	// Each model ships in one or two body types (a sedan model is not also
	// a truck), so (Model, Type) groups stay coherent while the tail keeps
	// the dataset sparse.
	type model struct {
		name, make_ string
		types       []string
		weight      float64
	}
	var models []model
	var totalW float64
	for _, mk := range makes {
		n := 1 + rng.Intn(2*cfg.ModelsPerMake)
		for i := 0; i < n; i++ {
			w := 1.0 / float64(i+1)
			mtypes := []string{types[rng.Intn(len(types))]}
			if rng.Intn(3) == 0 {
				second := types[rng.Intn(len(types))]
				if second != mtypes[0] {
					mtypes = append(mtypes, second)
				}
			}
			models = append(models, model{name: modelNamer.fresh(), make_: mk, types: mtypes, weight: w})
			totalW += w
		}
	}
	pick := func() model {
		x := rng.Float64() * totalW
		for _, m := range models {
			x -= m.weight
			if x <= 0 {
				return m
			}
		}
		return models[len(models)-1]
	}

	schema, err := dataset.NewSchema(CARSchema...)
	if err != nil {
		return nil, nil, err
	}
	tb := dataset.NewTable(schema)
	emit := func(m model, typ string) error {
		year := fmt.Sprintf("%d", 1998+rng.Intn(22))
		_, err := tb.Append(
			m.name, m.make_, typ, year,
			conditions[rng.Intn(len(conditions))],
			wheelDrives[rng.Intn(len(wheelDrives))],
			doorsByType[typ],
			engines[rng.Intn(len(engines))],
		)
		return err
	}
	// Every (model, type) pair gets a support floor of three listings — a
	// model on sale at all has more than one listing nationwide — so clean
	// data has no natural singleton groups for AGP to destroy; the long
	// tail above the floor keeps CAR sparse.
	for _, m := range models {
		for _, typ := range m.types {
			for k := 0; k < 3 && tb.Len() < cfg.Rows; k++ {
				if err := emit(m, typ); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	for tb.Len() < cfg.Rows {
		m := pick()
		if err := emit(m, m.types[rng.Intn(len(m.types))]); err != nil {
			return nil, nil, err
		}
	}
	return tb, CARRules(), nil
}
