"""Golden stdout digests: every command on every fixture and on seeded
random specs, text and JSON.

The digests pin the exact bytes each command prints at ``--max-degree 4``
(or at the bound a variant sets itself), together with its exit code, so
that refactors of the engines cannot change a verdict, a line of text or a
byte of a JSON report unnoticed.  To add a variant or a seed, record its
digest from a run of the unchanged code first.
"""
from __future__ import annotations

import hashlib
import random

import pytest

from helpers import FIXTURES, fixture_path, random_instance
from pacqa.cli import run
from pacqa.dsl import SpecDocument, print_spec

VARIANTS = (
    ("validate",),
    ("admissible",),
    ("orthogonal",),
    ("center",),
    ("center", "--graded"),
    ("fingen",),
    ("dual",),
    ("hochschild",),
    ("oracle-check",),
    ("oracle-check", "--max-degree", "6"),
    ("dot", "--graph", "gen"),
    ("dot", "--graph", "gen-perp"),
    ("dot", "--graph", "rel"),
)

# "<fixture> <command and flags>" -> (exit code, sha256 of stdout)
GOLDEN = {
    "anti_four_loops_free_pair oracle-check --max-degree 12":
        (0, "c1c12efe82b99034fe340501012b5d9a30da76b35575c0ac9aa06e7be1fbb97c"),
    "anti_four_loops_free_pair oracle-check --max-degree 12 --json":
        (0, "e51504c671c8db5eea9d7488c61e8d09d136f77f77ef8f5d8d3053051f660a1e"),
    "anti_four_loops_free_pair admissible":
        (0, "e06d8b31b6bd7fe4c46c3dd09f78c157b4f3c89796d56ef9def7be68ff2b80a6"),
    "anti_four_loops_free_pair admissible --json":
        (0, "fb8ebe0bb6837e2bd885ebb2207613cf693b124f39cf864d169f2402f89545fa"),
    "anti_four_loops_free_pair center":
        (0, "77afcc7d7c65bb826db997fc7a08c05b28c265c00e746bc4e10fb6e3715e3942"),
    "anti_four_loops_free_pair center --graded":
        (0, "4f404917f958e6f39ce61a7ebde4531c859fbd3778d73b84ba434e6fc8aabf9f"),
    "anti_four_loops_free_pair center --graded --json":
        (0, "c53b78df7b5ac8fef3a99fd42dcc5a865cff7aa7906df044df49099bcd345a16"),
    "anti_four_loops_free_pair center --json":
        (0, "ce1e7b4efadb7ede77cfb510f95240766a235936534bdae3a8f30d3261c5d21f"),
    "anti_four_loops_free_pair dot --graph gen":
        (0, "03a26a024449b95784b73d026d30b72abb5becf1b9774e30b84362302bdb66bc"),
    "anti_four_loops_free_pair dot --graph gen --json":
        (0, "b3847b409d8ccaf4ecc01edff6cacd7557a6082fb2d56bb6b2ef8c664f9964bc"),
    "anti_four_loops_free_pair dot --graph gen-perp":
        (0, "998666a0cbd01dff5a0269582a79e5dbcd8eb1caf772afc60c3eddf187050d3e"),
    "anti_four_loops_free_pair dot --graph gen-perp --json":
        (0, "2ce4fe6538fefe16f5158931d298f832068424f0f3e630d7140626d728c42cec"),
    "anti_four_loops_free_pair dot --graph rel":
        (0, "d76779f3a3a7668a242300236aeed365e0e0a0640cf198d9215632d554186102"),
    "anti_four_loops_free_pair dot --graph rel --json":
        (0, "a83fbc25d6a5ffc9411d8c0fa3160e8996fed1d44b135945f1a7947f3ef849a9"),
    "anti_four_loops_free_pair dual":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "anti_four_loops_free_pair dual --json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "anti_four_loops_free_pair fingen":
        (0, "6ce67430ab144db1fae29f982f3eeb9661824721024a2af4b263119986ea1835"),
    "anti_four_loops_free_pair fingen --json":
        (0, "5d0326659116d00491f274e926f3f7ed45affb8f6254ccd4e32e908f3c1fa0ee"),
    "anti_four_loops_free_pair hochschild":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "anti_four_loops_free_pair hochschild --json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "anti_four_loops_free_pair oracle-check":
        (0, "c1c12efe82b99034fe340501012b5d9a30da76b35575c0ac9aa06e7be1fbb97c"),
    "anti_four_loops_free_pair oracle-check --json":
        (0, "e51504c671c8db5eea9d7488c61e8d09d136f77f77ef8f5d8d3053051f660a1e"),
    "anti_four_loops_free_pair oracle-check --max-degree 6":
        (0, "c1c12efe82b99034fe340501012b5d9a30da76b35575c0ac9aa06e7be1fbb97c"),
    "anti_four_loops_free_pair oracle-check --max-degree 6 --json":
        (0, "e51504c671c8db5eea9d7488c61e8d09d136f77f77ef8f5d8d3053051f660a1e"),
    "anti_four_loops_free_pair orthogonal":
        (0, "c53c94af27d40225a787320ad6c5d2c3873e1debef6c26ef2e8cef6c3c29fe72"),
    "anti_four_loops_free_pair orthogonal --json":
        (0, "0c12419afaedd76760684dac8023090c06fc7b28c96a09f0d06777d2fec7b0dc"),
    "anti_four_loops_free_pair validate":
        (0, "ca3f893c82025e519e136fe6ceb2358baa4a3b2108fab5c501d451b875f32eb4"),
    "anti_four_loops_free_pair validate --json":
        (0, "3ffd1c69062db0678c7de8d77cdcbb53da3089bd1238a42fb0c9864a19d7205e"),
    "anti_four_loops_full admissible":
        (0, "6cff60cfa523613dd6b069615e4540c92835b8d763eff3deeb92a25e4857ebcd"),
    "anti_four_loops_full admissible --json":
        (0, "e44ae1c80437369273eb3d19b99fa80a6b90c1750125b8ee367e776fd4e84582"),
    "anti_four_loops_full center":
        (0, "e2c99ef500be2e05d82533f59fd49a234970fd337d37fe1616dafd22a5cdf52a"),
    "anti_four_loops_full center --graded":
        (0, "30bdba4af08ed766af9bc18572dec5529b94c4b09d75230a665f62e9ab3b210d"),
    "anti_four_loops_full center --graded --json":
        (0, "10a35f0fecdd8ffa81ff4b8505e9e4f1cbf819b7590d404f14a1b24f8b5862fe"),
    "anti_four_loops_full center --json":
        (0, "9daf00659f04fa4cb6a1f9ba81f8d0a6abe50e855d9b81881f8911b0cbac0671"),
    "anti_four_loops_full dot --graph gen":
        (0, "beeb36fe5c3534107b7617a93e1d55cf5c0e026645dbbd3e4b8c10205f561dff"),
    "anti_four_loops_full dot --graph gen --json":
        (0, "685b3b7727fe445cc37f1b18520542e537268a32e331b2712c7766ccfea782c6"),
    "anti_four_loops_full dot --graph gen-perp":
        (0, "418095ae06c074d36f5de9703cdc4401086ae5b2b2949e7c5cd60cf88bbbb64b"),
    "anti_four_loops_full dot --graph gen-perp --json":
        (0, "4fbe011fa8933cf37fe3a02e292e55c87f38998d8807788613edc5e8617efba8"),
    "anti_four_loops_full dot --graph rel":
        (0, "e3e32e3368ad7136125e48f7715b6dcaa00291c9be98bd7181b5932f28ab3ff4"),
    "anti_four_loops_full dot --graph rel --json":
        (0, "ed7cd7fd178ca4b1da273e9b8d0a86196cc36333664f99e37b9b24421627b89a"),
    "anti_four_loops_full dual":
        (0, "6c2aa09e86b3e4d224ebfdbc41284c77d1b7e47b05c04da63e07899ba4bae817"),
    "anti_four_loops_full dual --json":
        (0, "6e66389ed4c787805eb7a9f516d786e385ef10e9a0c89845e1de1dd13dc02eb4"),
    "anti_four_loops_full fingen":
        (0, "4c2f9d6396c7ac4603d60d65c0356f8870f46a3edb63a70e83b4413ea7314ce7"),
    "anti_four_loops_full fingen --json":
        (0, "d5f48baefd1b16524b0dc99ddb564e08ef98f4d21abbdbcb263321cf8c8f626c"),
    "anti_four_loops_full hochschild":
        (0, "89db048b59dfaf694d138298e3db6e67f4b962e622dd704dd42839673d9443f0"),
    "anti_four_loops_full hochschild --json":
        (0, "4de7c22a07ba60e954ea0f5333a3ee120dca3eb430f6d63ebf5a4c41b1e2b11e"),
    "anti_four_loops_full oracle-check":
        (0, "69b9ad67e39dd6ae3f6f90c228d60ec45f2a468a7b73580e10077abae1a97bda"),
    "anti_four_loops_full oracle-check --json":
        (0, "8fc1d8b60bd43044dce184653f1a55330bd45723789c29e49d317de21b0e5952"),
    "anti_four_loops_full oracle-check --max-degree 6":
        (0, "69b9ad67e39dd6ae3f6f90c228d60ec45f2a468a7b73580e10077abae1a97bda"),
    "anti_four_loops_full oracle-check --max-degree 6 --json":
        (0, "8fc1d8b60bd43044dce184653f1a55330bd45723789c29e49d317de21b0e5952"),
    "anti_four_loops_full orthogonal":
        (0, "2aaba74c002539febff07dc77c722ead8779fc1bd6288a406b87e0ee99f8ecb3"),
    "anti_four_loops_full orthogonal --json":
        (0, "37b364ed7a0d38e6cac464baf77ce203871fd92c866cdc0af152b358b2f532fd"),
    "anti_four_loops_full validate":
        (0, "9ab45ad555302a67e1767b87eebd6753c3894d0d115480b93c433fcce77b8e6b"),
    "anti_four_loops_full validate --json":
        (0, "6c24319d644c51fd7ef007abc767ad0e9e651108b512ab7cf66b9949eb83d36b"),
    "anti_two_loops_arrow admissible":
        (0, "8bc335c40b4251d2b5f0861dd5dbf20003f51a04b103c095e9a40743bc227331"),
    "anti_two_loops_arrow admissible --json":
        (0, "69795d60b086e161a39a2b1e67089b6a9ca3857d7b9f8a0850fcbd11a79b4046"),
    "anti_two_loops_arrow center":
        (0, "f2e8230102fb86934a56c06f4cc01d4c821e0b5d5e4987872d1340bd84ba1627"),
    "anti_two_loops_arrow center --graded":
        (0, "c12b1887a41ba3b9ed32a72798255b667da738526f16abbd22430db726875e94"),
    "anti_two_loops_arrow center --graded --json":
        (0, "d09af079dc4336a2f56e2d7acdeb3385794617042df8cf6985f0a18c6535608f"),
    "anti_two_loops_arrow center --json":
        (0, "65db6bd67a5c8e9c96d1982161a3446838d4013078c4710928f65be8fcb5998f"),
    "anti_two_loops_arrow dot --graph gen":
        (0, "aff58fdd7b13413366215557537e97b923e8ca9f7945606dc871b5efeaa9064c"),
    "anti_two_loops_arrow dot --graph gen --json":
        (0, "fc889f7bc21e262e2ed49af330cd4458a2b83d62fa6a0925d3b2808f21eb5d71"),
    "anti_two_loops_arrow dot --graph gen-perp":
        (0, "e1627f8c759ee5a27f8282c4153b7040fca657a7e36bafae9ce12a29bfefab12"),
    "anti_two_loops_arrow dot --graph gen-perp --json":
        (0, "aa13c4efd11172921a44e0c4fa3bc235962cf6935c2a08c95a1283d2a8b6c261"),
    "anti_two_loops_arrow dot --graph rel":
        (0, "bcb9642ecd66cda3bae673a8c6c9c2cc56997951cabc3667a0d1462cc2020521"),
    "anti_two_loops_arrow dot --graph rel --json":
        (0, "30823e244af7f3b235ea4b4d93466ee0c8613485138f54b665413f18ace029ca"),
    "anti_two_loops_arrow dual":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "anti_two_loops_arrow dual --json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "anti_two_loops_arrow fingen":
        (0, "cc937707a90b7ec81cfd95d3853f3493dd3a219d8aef76fe71bd1ee3889427db"),
    "anti_two_loops_arrow fingen --json":
        (0, "feb5bca6590bc6dbf2602d4f070058c00fbb3d63b02b1af5579ca183fd14cf27"),
    "anti_two_loops_arrow hochschild":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "anti_two_loops_arrow hochschild --json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "anti_two_loops_arrow oracle-check":
        (0, "337ca7f383df4a1032f195fbeb2eb57ec1547a38ce3effb1cc898bf34a2b6d1f"),
    "anti_two_loops_arrow oracle-check --json":
        (0, "c149b75f2724453a10604db7c0d0cfc6a35cf3e684d214f0ccd0d799ccae2ed7"),
    "anti_two_loops_arrow oracle-check --max-degree 6":
        (0, "c14f1ee3e9e9999d96d103a66561668e347e6e56a58bb016d2ffcfde28e8693c"),
    "anti_two_loops_arrow oracle-check --max-degree 6 --json":
        (0, "43f85804579c97941871b66dff5dccab87a99a178ec79bcea2e6eaa0f45c33a8"),
    "anti_two_loops_arrow orthogonal":
        (0, "bd3918bfa94d0b6b2a67db98499eaf0ce33559fb0c13b578f4dc871c9cc0f200"),
    "anti_two_loops_arrow orthogonal --json":
        (0, "1de9f29e9924df7cccff3789f9e4fdf6aea1bec1b19201c330188778cbe04c63"),
    "anti_two_loops_arrow validate":
        (0, "71f2c53a53cc0101ae0ca544720ef575c8b5a4726dbf4ae89a974db9c16db6b9"),
    "anti_two_loops_arrow validate --json":
        (0, "1ef9045418b68cb61bd262199155f3d23fa6dd33230688a32cd69d595b7a4033"),
    "comm_four_loops_arrow_out admissible":
        (0, "e71942d3c6d7807e59c2bccbac40f8cfd2f16f50e18bd83ab7f204b2f25ff133"),
    "comm_four_loops_arrow_out admissible --json":
        (0, "98380ab241c37c49d92896c5cb611cf2039b5b513ecd09b6380f1c8b9cf23470"),
    "comm_four_loops_arrow_out center":
        (0, "3b45ff44baa7961d64a4164ebeed3131d0a83604dfc0425a26da3f0cc400c1ab"),
    "comm_four_loops_arrow_out center --graded":
        (0, "3f335f10a5c9a15a4e4c15742d5f12ca69a33e7c1aeefe1845e432727332e525"),
    "comm_four_loops_arrow_out center --graded --json":
        (0, "15713ada49e9905459e7b51205756fbf3ad09776b57703a4e4a3bfa43b7eca2a"),
    "comm_four_loops_arrow_out center --json":
        (0, "9244a5f2102c62994002cbc5caf65066a008a6e7b00c0d47ff80df98160ed1ad"),
    "comm_four_loops_arrow_out dot --graph gen":
        (0, "b2db605abd53c57af7ae2df045a0fd1423315d17451065fe58be039fd7a42e64"),
    "comm_four_loops_arrow_out dot --graph gen --json":
        (0, "8dbcd0dc274bf82f9a724e5e2fc3a125ee339a03e483e8a649e9e2ef66100dcc"),
    "comm_four_loops_arrow_out dot --graph gen-perp":
        (0, "8d5a3ceff0fc2d1ff34d616b5209aa44d5865261fece3e51c4984c1cb4719d00"),
    "comm_four_loops_arrow_out dot --graph gen-perp --json":
        (0, "879031ef794a360479c1521480e8f22347f549613c2ff8b417c1bfa767828ee5"),
    "comm_four_loops_arrow_out dot --graph rel":
        (0, "b7f764a2c2ceb9ac9f08d8ea3de0627e8cc4f549acd95b6952748f5ddbc086d5"),
    "comm_four_loops_arrow_out dot --graph rel --json":
        (0, "f64d8d7bcbe3297326ea0300adb5c3afb4012e5ed01aa307fb88f89bc68b76f1"),
    "comm_four_loops_arrow_out dual":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "comm_four_loops_arrow_out dual --json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "comm_four_loops_arrow_out fingen":
        (0, "36c0a143fdeea66c1a7c9f0e2032e32e89c6b37df2a7b8ebcf9da51460f7277f"),
    "comm_four_loops_arrow_out fingen --json":
        (0, "1e98826502d0922d451e5b258d2778ebd68dc0338e660dbea846e9251013a121"),
    "comm_four_loops_arrow_out hochschild":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "comm_four_loops_arrow_out hochschild --json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "comm_four_loops_arrow_out oracle-check":
        (0, "dc65f3ca7f557a1ea64fac6e3622e4e6ac2319e702ff6904827fa5bf42a62d9a"),
    "comm_four_loops_arrow_out oracle-check --json":
        (0, "e5a8e7ed6c483fd2120501ea42fdb41e6f3f9926366787cbdb68cd458a3f3901"),
    "comm_four_loops_arrow_out oracle-check --max-degree 6":
        (0, "0e32d5cd74313d15887103b322966f4dd83ece0876617b00345d3d0e92528fec"),
    "comm_four_loops_arrow_out oracle-check --max-degree 6 --json":
        (0, "7259bcbf722f25d9ab7a4471e630653c73d37c208e7dda74e025c97e1a9e58ae"),
    "comm_four_loops_arrow_out oracle-check --max-degree 12":
        (0, "0b83eda9531ed57dcaa6dfee906ab4c5b189c67ddd7ecc1e51c2f40f260b6cfe"),
    "comm_four_loops_arrow_out oracle-check --max-degree 12 --json":
        (0, "0b32aea753c14b2108ad9968904819ff2c0e57278f9c8515da24753009e9c096"),
    "comm_four_loops_arrow_out orthogonal":
        (0, "c8fb0015b078d706fa430c07f06c32108fa784a208d7f4f11df672579491b3c9"),
    "comm_four_loops_arrow_out orthogonal --json":
        (0, "3d1c2a0b519d95b833647276e855fb1ddc1505444e6153037fab2ad0be81a55c"),
    "comm_four_loops_arrow_out validate":
        (0, "6783fc74a4c16c7ab41e697d022683e393b40a2690525f929bff53aecc4d844b"),
    "comm_four_loops_arrow_out validate --json":
        (0, "0e32360b9f862c26ddac143bd23930ab70b7c4be646b4e87aff222183a510a07"),
    "comm_two_loops_arrow admissible":
        (0, "b07f82bd792a4a3912d1c337708101244c8b92a06ce9284b83b3dfdf91c3977c"),
    "comm_two_loops_arrow admissible --json":
        (0, "aae47ea7987edcd1fa554d93a9e158574ed466636fbb228c7200300fed4cf306"),
    "comm_two_loops_arrow center":
        (0, "092fe7e1879e599865ca605eaa484482afc27d07d32627051f4fba15cbdf3931"),
    "comm_two_loops_arrow center --graded":
        (0, "c5d4811bb892036ece3c9a4f430da86d32d284c278f90229284258e220a74a90"),
    "comm_two_loops_arrow center --graded --json":
        (0, "d6537aecbb0e6a52b9071ba04638af93eaf6fbd44dbd1024ee69a030a262cafb"),
    "comm_two_loops_arrow center --json":
        (0, "d445891b3ade83123038cab004e6aaa65a020f8745a2be37b2d8e8fca87db02a"),
    "comm_two_loops_arrow dot --graph gen":
        (0, "e1627f8c759ee5a27f8282c4153b7040fca657a7e36bafae9ce12a29bfefab12"),
    "comm_two_loops_arrow dot --graph gen --json":
        (0, "05d8afd98ac5d4dde82a717ad0e48b35c2000b052145f597a2c3f4046b15a3a9"),
    "comm_two_loops_arrow dot --graph gen-perp":
        (0, "aff58fdd7b13413366215557537e97b923e8ca9f7945606dc871b5efeaa9064c"),
    "comm_two_loops_arrow dot --graph gen-perp --json":
        (0, "48fcc33fadc90eeb717a5bab8f2f8392dfbea204a74742e06ed60942a1813f65"),
    "comm_two_loops_arrow dot --graph rel":
        (0, "0c28cb21154f446b58af38cd1e82f963093d94f708ffa17fd52f22f49fe3d064"),
    "comm_two_loops_arrow dot --graph rel --json":
        (0, "9ade414fd46bd9f3b41fe6457b4f236d0c2e5de64b7920b15c41c5ed71434244"),
    "comm_two_loops_arrow dual":
        (0, "73819a5ef9b7250f7c78919eb29c92b906f40b227248ec12ea2f25d427538f80"),
    "comm_two_loops_arrow dual --json":
        (0, "3c9b21b3d3246803c13142b6cb35d40d04aeddb7feca7a65c0649452a309f634"),
    "comm_two_loops_arrow fingen":
        (0, "01f5b87d5726d434ce2acc056cdfd370a68938738058b09bcfbe957f111c0d9e"),
    "comm_two_loops_arrow fingen --json":
        (0, "cf72d09ead846a96a0c1217e5b87333bc9c2b72aa3ee1a36d35e45a0b9a4043b"),
    "comm_two_loops_arrow hochschild":
        (0, "31170ff595c4bbe7a2887234b0a34cc62cdc62450d382cd3dbed3fbb40894e1f"),
    "comm_two_loops_arrow hochschild --json":
        (0, "98138f34aac3e5fcc536c45bf7a0dc01f55ef7361bde4b1780581a0ed4ee6bdc"),
    "comm_two_loops_arrow oracle-check":
        (0, "820595866d57b2eaf485cf68adbbe8638f814a249605d359d14caed21e62922f"),
    "comm_two_loops_arrow oracle-check --json":
        (0, "06fa0dcead67551ee08a6336bd5c911219cadd8e9830cb5d5edb48353468f279"),
    "comm_two_loops_arrow oracle-check --max-degree 6":
        (0, "820595866d57b2eaf485cf68adbbe8638f814a249605d359d14caed21e62922f"),
    "comm_two_loops_arrow oracle-check --max-degree 6 --json":
        (0, "06fa0dcead67551ee08a6336bd5c911219cadd8e9830cb5d5edb48353468f279"),
    "comm_two_loops_arrow orthogonal":
        (0, "590a7229ebbe89d724d40c406320fc1a96efae7b67e170a78e2909889837860d"),
    "comm_two_loops_arrow orthogonal --json":
        (0, "4bb7fb492fd63c2bce14805f4286950f331eef5c1486a6ca9f263e13aa7270fd"),
    "comm_two_loops_arrow validate":
        (0, "99d7dc855f69b1328cb3cb7d575d7314c656d2face5d2c045ab34567c0f1efc4"),
    "comm_two_loops_arrow validate --json":
        (0, "5700ddf631a0733d06b238423208005f2b8ea6f4423ae705edbf75d329676d39"),
    "monomial_two_loops_two_arrows admissible":
        (0, "6cff60cfa523613dd6b069615e4540c92835b8d763eff3deeb92a25e4857ebcd"),
    "monomial_two_loops_two_arrows admissible --json":
        (0, "d8cf614f2135d714ba6ee95655a2a3951b4064dad70f906efa096a462d7518bb"),
    "monomial_two_loops_two_arrows center":
        (0, "2668b8654f42c13fa965781e70836dc6e80eb3b9bbea9c3ed095dd002e9865dc"),
    "monomial_two_loops_two_arrows center --graded":
        (0, "2668b8654f42c13fa965781e70836dc6e80eb3b9bbea9c3ed095dd002e9865dc"),
    "monomial_two_loops_two_arrows center --graded --json":
        (0, "83c14fff047be2813e4547afd9ed89281713fe7975a5ef0a796cbee29d7da86a"),
    "monomial_two_loops_two_arrows center --json":
        (0, "83c14fff047be2813e4547afd9ed89281713fe7975a5ef0a796cbee29d7da86a"),
    "monomial_two_loops_two_arrows dot --graph gen":
        (0, "dd2f945e55af76e4755adbeb46bb6b034c3a77884e1633e5f30b40b4ec0b5280"),
    "monomial_two_loops_two_arrows dot --graph gen --json":
        (0, "44ea81f6bb711703cd813f2b78d393521adba67871f3c4aeb5cb11d94c5e50f3"),
    "monomial_two_loops_two_arrows dot --graph gen-perp":
        (0, "736c5bf6da28f6f6c144ff0c9f083372fe48eb70e39b5ceb320a4c7b651309a2"),
    "monomial_two_loops_two_arrows dot --graph gen-perp --json":
        (0, "416a84d65a86fbb2d87ed4fd13719d160ecf9aca5400a8416ec014c301cd2e9e"),
    "monomial_two_loops_two_arrows dot --graph rel":
        (0, "1716b25d5cab4f3f357c0f20a8f9fb6519a3ee0ca0d4955414655e35440c47b6"),
    "monomial_two_loops_two_arrows dot --graph rel --json":
        (0, "f1e267e7fee64fd03bf6dc659b399010c2d886ce484161fa6be95d7be2ea00de"),
    "monomial_two_loops_two_arrows dual":
        (0, "dc4d0f9c7500129cf227aadc9a5d472e31ca78b120adef144cb584460a6001dd"),
    "monomial_two_loops_two_arrows dual --json":
        (0, "e01ee143cd3a1c41b78cc6f35a61f58b83b195209a5ed302ee82f2bb6976b003"),
    "monomial_two_loops_two_arrows fingen":
        (0, "63434b38117cb0f09d48a2d24aabddfbea1c4887f2690ea1353ac6860e493c78"),
    "monomial_two_loops_two_arrows fingen --json":
        (0, "9c467ed77d4d5e7d76221719b07d164d65d45cd5e35551ab7ba02a2fb115bb9e"),
    "monomial_two_loops_two_arrows hochschild":
        (0, "bc89971a94440bfded833a596bbf24a55b91c0af6df2feef177761ab21ed34d5"),
    "monomial_two_loops_two_arrows hochschild --json":
        (0, "add5b9b1b6b6188f1a9b01b6f3427941fbc7ede8bdbbba37e490c3b101b953a9"),
    "monomial_two_loops_two_arrows oracle-check":
        (0, "69b9ad67e39dd6ae3f6f90c228d60ec45f2a468a7b73580e10077abae1a97bda"),
    "monomial_two_loops_two_arrows oracle-check --json":
        (0, "b9f4be8377cfc8edf904f2e5686ac50ee032369ad5d950f14d1bc7ab00958af9"),
    "monomial_two_loops_two_arrows oracle-check --max-degree 6":
        (0, "69b9ad67e39dd6ae3f6f90c228d60ec45f2a468a7b73580e10077abae1a97bda"),
    "monomial_two_loops_two_arrows oracle-check --max-degree 6 --json":
        (0, "b9f4be8377cfc8edf904f2e5686ac50ee032369ad5d950f14d1bc7ab00958af9"),
    "monomial_two_loops_two_arrows orthogonal":
        (0, "cd60a3219814b0c3a47b731706d154739c91c71218b0c7b30c55d3c6d723b6d9"),
    "monomial_two_loops_two_arrows orthogonal --json":
        (0, "299fcd6c8df25c500b71c5b9500415e371c7216b9a2a698e394a86a02cd63486"),
    "monomial_two_loops_two_arrows validate":
        (0, "aa0493cf77780fc754cb15ec8d8d348c01d6fd1f2626d9983968e30290b39f42"),
    "monomial_two_loops_two_arrows validate --json":
        (0, "116d05ff01ef33a5e66a78d32a3d651974ebbce71382906853e69d969938a414"),
}


# Deeper oracle runs on two fixtures whose quotient stays nonzero in every
# degree: the frontier reaches degree 13 on both, and on the first the
# center's right products and the nilpotence powers reach degree 12 (the
# second lies outside the theorem hypotheses, so its center is skipped).
DEEP_VARIANTS = (
    ("comm_four_loops_arrow_out", ("oracle-check", "--max-degree", "12")),
    ("anti_four_loops_free_pair", ("oracle-check", "--max-degree", "12")),
)


@pytest.mark.parametrize("variant", VARIANTS, ids=" ".join)
@pytest.mark.parametrize("name", FIXTURES)
def test_stdout_matches_golden_digest(name, variant, capsys):
    _check_golden(name, variant, capsys)


@pytest.mark.parametrize("name,variant", DEEP_VARIANTS,
                         ids=[" ".join((n, *v)) for n, v in DEEP_VARIANTS])
def test_deep_oracle_matches_golden_digest(name, variant, capsys):
    _check_golden(name, variant, capsys)


def _check_golden(name, variant, capsys):
    for json_flag in ((), ("--json",)):
        code = run([variant[0], fixture_path(name), "--max-degree", "4",
                    *variant[1:], *json_flag])
        out = capsys.readouterr().out
        key = " ".join((name, *variant, *json_flag))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) \
            == GOLDEN[key], key


# Seeded random specs: seed i draws one ``random_instance`` and its koszul
# line from a stream of its own.  Each digest covers every variant, text
# and JSON, as ``"<variant> <exit code>\n"`` followed by the stdout bytes.
SEEDED_GOLDEN = (
    "a7d2e8d527c3015d5806ae0c0f8955cff45eeede1164226491e1c8ff3e839544",
    "0ec1bf123b9649a38a14b29269e7995dd691ce13cdfcb6a1d431b0568e088981",
    "4d7a8e476faf416c79c621dd318d6b9de64d4f28da6f0429995f9df9d936755c",
    "035b0a5208d28c37823ca1b4343afd98385b950524592c9e293d93be53ecb7a8",
    "23db7faad980dabb56b4e66a9ff811c96e4ef21906d03c05427edbeaac5c4845",
    "82c348e7c5b0517c7870a586eb7fc6dbc045dc088d8efecb0c766becb1a516ad",
    "6970a0f8f0cffd4426b5be3416ac32671f9596bc089e064013a3624ff58cfb7b",
    "db093c17370e32ddca763b5a51f0abe314fb78b68a32ff93a848c08f628e829f",
    "b85c7a8245f6e51e49b75b64fa0d7adc8b2802c284c7ae7cbaf42e182c1f0d11",
    "d8c05d1b0ba6572ba99c448b0122f0b7c9e7ede5adf8f01e08c9afd5c035d9f7",
    "99b383bd89b15c39fd9446d87075da101103138d1fce070ece11c42d04d5bf47",
    "73fc68aabd236b9deb54ec7997f203e1bb8e845bf59ba519e1f0a61865542485",
    "762a1a1986d72423a940a9faa1740590ce1e86bd787de66942cc6fa8ab10b275",
    "4d7a8e476faf416c79c621dd318d6b9de64d4f28da6f0429995f9df9d936755c",
    "d471b20996c786bbe0c8d7aec629b18183c6cc9bf826dc7c8e6ecf9470cfac4a",
    "7d28f88503387cff2e02aaad91aeada558729a1f73b2f5e5a349a7a586f153f8",
    "4aecd79662c5115a283ad22921134c18560e1b2769ea54e6a8f836995af1ee0a",
    "45c8cfb467462a38ba89c23ced057a12c9cae46cfe3697c466473d90d94903be",
    "928c73ee6ed1c484f650a3b6234046b5716c2dd1e297c9686a261b30babad313",
    "2b03e48e3f0b6fbef735aabc72b5ad5947781896d1af45a2bc30c1ab7e0628b5",
    "e4c09a448f0c3bd6f1bb680a8671c5beba1b2ab4150e5ac7e6123a81cf2eafc0",
    "1a5397f795eabcca1263f0fc7c955655f16e99ac34a91147f865bb7fe1637f9b",
    "db093c17370e32ddca763b5a51f0abe314fb78b68a32ff93a848c08f628e829f",
    "65102cb26928854ac99b8d8f769c1a88b448737cb79aaf208a733cc0f2d3275a",
    "e23a4d89cf62080e6c4ffe4adbb3e2010292152a30fa3e89e5bb6a957247a255",
    "3b2539a0f74146f04ea71d3dea5abbcfb083837f4f67fa2b8507d182372788cf",
    "ca32fd48c5bc3ff93d3ad7b0025628a00a93ea33916070dc06f4755a8e2f9eb5",
    "b8998b26856f4502018a0b8fd0fd7a4fd84a4c015ed36ed52ed325846049d236",
    "0f0d3988b2e2317cc710db73f2464de1ab61301b76d6e26ec5800c964368d9f7",
    "9589f9cb6ad92eb475d26300671b1f1c4b06d03eca6981fa86be55c8a590780b",
    "679a9f0c7460f693ce4df40be12e4adac5ca538bc8eec53749ccccc8082d8e87",
    "8bfa4b456f8a77ecfaaecb02fb892a60ad87494f1f2ef71652d36365ffe4f1d1",
    "cf7535d263fc78f9df5ee30adfce622327f50d2b238c4bbaef2952405b6d9aec",
    "bae9215abb5912cf650276e62f9382107bf19f9deb7d43dd5716358a31d1513c",
    "5044155368d43e0c8a9908fc3eb30940bec319834ecad5bf91f7922483ff96c1",
    "4e816e4aa79610e1fec356fd7ed7176602f0e011a052cb881916dfc07eb96bc2",
    "c1c406ad10c2fce464e5d6b12ae0cec4cfe6b63d7ede6b975ca3ef466c1affe6",
    "97fdd4f9b597d0e519c47561f5c4540915cc8a2bf1d0893f6c6c5de7af36152d",
    "9f20265dba4b0d95b790983b181d26540b2a64ff7b0e9def12fddb16f9930462",
    "0926641dd88e1c0289ee4a2d7ed8f10b1c6f7e6eb780a51ce33fb1cfa1e61c20",
)


def seeded_spec_text(seed: int) -> str:
    rng = random.Random(f"golden-{seed}")
    spec = random_instance(rng)
    return print_spec(SpecDocument("", spec.quiver, spec,
                                   rng.random() < 0.5, ()))


def seeded_digest(path: str, capsys) -> str:
    digest = hashlib.sha256()
    for variant in VARIANTS:
        for json_flag in ((), ("--json",)):
            code = run([variant[0], path, "--max-degree", "4",
                        *variant[1:], *json_flag])
            digest.update(f"{' '.join((*variant, *json_flag))} {code}\n"
                          .encode())
            digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", range(len(SEEDED_GOLDEN)))
def test_seeded_instance_matches_golden_digest(seed, tmp_path, capsys):
    path = tmp_path / "seeded.quiver"
    path.write_text(seeded_spec_text(seed), encoding="utf-8")
    assert seeded_digest(str(path), capsys) == SEEDED_GOLDEN[seed], \
        seeded_spec_text(seed)
