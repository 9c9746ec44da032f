package traclus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// rootAPI is the public surface of package traclus: every exported
// top-level name, and every exported method, struct field and interface
// method of an exported type, as "Name" or "Type.Name". A new entry point,
// alias, option or Config field shows up here as a one-line diff.
var rootAPI = []string{
	"Appender",
	"Appender.Append",
	"Appender.Result",
	"BruteIndexBackend",
	"Classifier",
	"Classifier.Classify",
	"Classifier.NumClusters",
	"Classifier.Snapshot",
	"ClassifierSnapshot",
	"ClassifierSnapshot.CostAdvantage",
	"ClassifierSnapshot.Eps",
	"ClassifierSnapshot.Frame",
	"ClassifierSnapshot.Geometry",
	"ClassifierSnapshot.Index",
	"ClassifierSnapshot.MinSegmentLength",
	"ClassifierSnapshot.Reference",
	"ClassifierSnapshot.TemporalWeight",
	"ClassifierSnapshot.Undirected",
	"ClassifierSnapshot.Weights",
	"ClassifierSnapshot.Windows",
	"Cluster",
	"Cluster.Representative",
	"Cluster.Segments",
	"Cluster.Trajectories",
	"ClusterStat",
	"ClusterStat.Cluster",
	"ClusterStat.RepresentativePoints",
	"ClusterStat.SSE",
	"ClusterStat.Segments",
	"ClusterStat.Trajectories",
	"Config",
	"Config.CostAdvantage",
	"Config.Eps",
	"Config.Gamma",
	"Config.Geometry",
	"Config.Index",
	"Config.MinLns",
	"Config.MinSegmentLength",
	"Config.MinTrajs",
	"Config.Undirected",
	"Config.Validate",
	"Config.ValidateForEstimation",
	"Config.Weights",
	"Config.Workers",
	"ConfigError",
	"DefaultEstimationRange",
	"Distance",
	"ErrNoClusters",
	"ErrTimedModel",
	"Estimate",
	"Estimate.AvgNeighbors",
	"Estimate.Entropy",
	"Estimate.Eps",
	"Estimate.MinLnsHi",
	"Estimate.MinLnsLo",
	"GeoFrame",
	"GeodesicGeometry",
	"Geometry",
	"GridIndexBackend",
	"IndexBackend",
	"Interval",
	"Item",
	"New",
	"NewClassifier",
	"NewClassifierFromSnapshot",
	"NewTrajectory",
	"Option",
	"ParseGeometry",
	"ParseIndexBackend",
	"Partition",
	"PartitionSegments",
	"Phase",
	"Phase.String",
	"PhaseEstimate",
	"PhaseGroup",
	"PhasePartition",
	"PhaseRepresent",
	"Pipeline",
	"Pipeline.Estimate",
	"Pipeline.NewAppender",
	"Pipeline.Run",
	"PlanarGeometry",
	"Point",
	"ProgressEvent",
	"ProgressEvent.Done",
	"ProgressEvent.Fraction",
	"ProgressEvent.Phase",
	"ProgressEvent.Total",
	"ProgressFunc",
	"Pt",
	"RTreeIndexBackend",
	"Rect",
	"Result",
	"Result.Classifier",
	"Result.Classify",
	"Result.ClusterStats",
	"Result.ClusterWindows",
	"Result.Clusters",
	"Result.Dendrogram",
	"Result.DendrogramAt",
	"Result.DistCalls",
	"Result.Estimated",
	"Result.Geometry",
	"Result.Items",
	"Result.NoisePenalty",
	"Result.NoiseSegments",
	"Result.QMeasure",
	"Result.QualityPairs",
	"Result.RemovedClusters",
	"Result.TotalSegments",
	"Segment",
	"SpatiotemporalGeometry",
	"Trajectory",
	"ValidateEstimationRange",
	"Weights",
	"WithConfig",
	"WithEstimation",
	"WithProgress",
}

// TestRootAPISurface pins the root package's exported surface to rootAPI.
func TestRootAPISurface(t *testing.T) {
	got := exportedSurface(t)
	if slices.Equal(got, rootAPI) {
		return
	}
	for _, name := range got {
		if !slices.Contains(rootAPI, name) {
			t.Errorf("exported but not in rootAPI: %s", name)
		}
	}
	for _, name := range rootAPI {
		if !slices.Contains(got, name) {
			t.Errorf("in rootAPI but not exported: %s", name)
		}
	}
	if !t.Failed() {
		t.Error("rootAPI must list the surface sorted, each name once")
	}
	t.Logf("surface:\n\t%q", got)
}

// exportedSurface parses the package's non-test files and lists their
// exported names, sorted.
func exportedSurface(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, d.Name.Name)
				} else if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
					names = append(names, recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
							names = append(names, memberNames(s.Name.Name, s.Type)...)
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// receiverName returns the type name of a method receiver.
func receiverName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// memberNames lists the exported fields of a struct type and the exported
// methods of an interface type, qualified by the type's name.
func memberNames(typ string, e ast.Expr) []string {
	var fields *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return nil
	}
	var names []string
	for _, field := range fields.List {
		for _, n := range field.Names {
			if n.IsExported() {
				names = append(names, typ+"."+n.Name)
			}
		}
	}
	return names
}
